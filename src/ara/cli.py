"""Command-line front end: generate instances, solve them, run benchmark
sweeps, and check marginal implementability.

Exit codes: 0 success, 2 parse/usage error, 3 solver error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from ara.core import GameError, check_implementability
from ara.exact import enumerate_pure, exact_maximin
from ara.fams import FamsFixer, SolveTimeout, encode_fams, fams_column_generation
from ara.generators import GenConfig, gen_fams, gen_tsg
from ara.jsonio import (
    ParseError,
    fams_to_json,
    instance_digest,
    parse_instance,
    read_json,
    tsg_to_json,
)
from ara.lp import LpError
from ara.marginal import solve_marginal
from ara.reports import METHODS, SolveReport
from ara.sampling import SamplingFailure, estimate_mixed, to_pe0
from ara.tsg import TsgFixer, encode_tsg, tsg_detection_ratio

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3

DEFAULT_CUTOFF_S = 600.0
DEFAULT_SAMPLES = 1000


def _encode(family: str, inst):
    if family == "fams":
        return encode_fams(inst)
    if family == "tsg":
        return encode_tsg(inst)
    return inst


def run_method(family: str, inst, method: str, seed: int, samples: int = DEFAULT_SAMPLES,
               cutoff_s: float = DEFAULT_CUTOFF_S, digest: str = "") -> SolveReport:
    """Solve one instance with one method and wrap the outcome in a report."""
    start = time.monotonic()
    detection = None
    failures = 0

    if method == "cg":  # column generation encodes the instance itself
        if family != "fams":
            raise GameError("column generation only applies to air-marshal instances")
        value = upper = fams_column_generation(inst, cutoff_s=cutoff_s).value
    else:
        game = _encode(family, inst)
        if method == "marginal-bound":
            ms = solve_marginal(game)
            value = upper = ms.upper_bound
        elif method == "exact":
            value = upper = exact_maximin(game, enumerate_pure(game)).value
        elif method == "rand":
            if family == "fams":
                fixer = FamsFixer(inst)
            elif family == "tsg":
                fixer = TsgFixer(inst)
            else:
                raise GameError("the sampling pipeline needs a domain fixer; "
                                "raw games support exact and marginal-bound only")
            pe0 = to_pe0(game)
            ms = solve_marginal(pe0.game)
            rng = np.random.default_rng(seed)
            result = estimate_mixed(ms, pe0, fixer, rng, samples)
            value, upper, failures = result.value, ms.upper_bound, result.sample_failures
            if family == "tsg":
                stacked = np.stack([s.values for s in result.estimate.samples])
                detection = tsg_detection_ratio(ms.x_m.values, stacked, game).min_ratio
        else:
            raise GameError(f"unknown method {method!r}")

    wall_ms = int((time.monotonic() - start) * 1000)
    return SolveReport(method, float(value), float(upper), wall_ms, seed, digest,
                       sample_failures=failures, detection_ratio=detection)


def _cmd_generate(args) -> int:
    cfg = GenConfig(seed=args.seed, family=args.family, flights=args.flights,
                    schedules=args.schedules, targets_per_schedule=args.targets_per_schedule,
                    resources=args.resources, risk_levels=args.risk_levels,
                    resource_types=args.resource_types, team_types=args.team_types)
    if args.family == "fams":
        data = fams_to_json(gen_fams(cfg))
    else:
        data = tsg_to_json(gen_tsg(cfg))
    out = args.out or f"{args.family}-{args.seed}.json"
    with open(out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    data = read_json(args.instance)
    family, inst = parse_instance(data)
    report = run_method(family, inst, args.method, args.seed, samples=args.samples,
                        cutoff_s=args.cutoff_s, digest=instance_digest(data))
    if args.out:
        report.write(args.out)
    print(f"{args.method}: value={report.value:.6f} upper_bound={report.upper_bound:.6f} "
          f"wall_ms={report.wall_ms} sample_failures={report.sample_failures}")
    return EXIT_OK


CSV_COLUMNS = ["family", "size", "seed", "method", "value", "upper_bound", "loss_pct",
               "wall_ms", "sample_failures", "status"]


def _bench_row(family: str, size: int, seed: int, method: str, inst, digest: str,
               samples: int, cutoff_s: float) -> dict:
    row = {"family": family, "size": size, "seed": seed, "method": method,
           "value": "", "upper_bound": "", "loss_pct": "", "wall_ms": "",
           "sample_failures": "", "status": "ok"}
    try:
        report = run_method(family, inst, method, seed, samples=samples,
                            cutoff_s=cutoff_s, digest=digest)
        row.update(value=f"{report.value:.9f}", upper_bound=f"{report.upper_bound:.9f}",
                   wall_ms=report.wall_ms, sample_failures=report.sample_failures)
    except SolveTimeout:
        row["status"] = "timeout"
    except (GameError, LpError, SamplingFailure) as exc:
        row["status"] = f"failed: {exc}"
    return row


def _cmd_bench(args) -> int:
    cfg = read_json(args.config)
    try:
        family = cfg["family"]
        sizes = list(cfg["sizes"])
        reps = int(cfg.get("repetitions", 30))
        methods = list(cfg.get("methods", []))
        samples = int(cfg.get("samples", DEFAULT_SAMPLES))
        cutoff_s = float(cfg.get("cutoff_s", DEFAULT_CUTOFF_S))
        seed_base = int(cfg.get("seed", 0))
        base = dict(cfg.get("base", {}))
        for size in sizes:  # the generator's own checks, before any solve
            GenConfig(seed=seed_base, family=family, flights=size, **base)
    except (KeyError, TypeError, ValueError, GameError) as exc:
        raise ParseError(args.config, f"bad config: {exc!r}") from exc
    if not methods:
        raise ParseError(args.config, "config lists no methods")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ParseError(args.config, f"unknown method {method!r}; "
                             f"methods are {', '.join(METHODS)}")
        if method in methods[:i]:
            raise ParseError(args.config, f"method {method!r} is listed twice")

    # each instance is generated and digested once, for all methods
    out_rows = []
    for size in sizes:
        per_seed = []
        for seed in range(seed_base, seed_base + reps):
            gen = GenConfig(seed=seed, family=family, flights=size, **base)
            inst = gen_fams(gen) if family == "fams" else gen_tsg(gen)
            digest = instance_digest(fams_to_json(inst) if family == "fams" else tsg_to_json(inst))
            rows = {method: _bench_row(family, size, seed, method, inst, digest, samples, cutoff_s)
                    for method in methods}
            # rand's loss against the first of exact and cg that solved
            rand = rows.get("rand")
            refs = [rows[m] for m in ("exact", "cg") if m in rows and rows[m]["status"] == "ok"]
            if rand and rand["status"] == "ok" and refs:
                exact_v = float(refs[0]["value"])
                rand["loss_pct"] = f"{100.0 * (exact_v - float(rand['value'])) / abs(exact_v):.6f}"
            per_seed.append(rows)
            out_rows.extend(rows[method] for method in methods)
        for method in methods:
            group = [rows[method] for rows in per_seed]
            losses = [float(r["loss_pct"]) for r in group if r["loss_pct"] != ""]
            walls = [int(r["wall_ms"]) for r in group if r["wall_ms"] != ""]
            out_rows.append({"family": family, "size": size, "seed": "mean", "method": method,
                             "value": "", "upper_bound": "",
                             "loss_pct": f"{np.mean(losses):.6f}" if losses else "",
                             "wall_ms": f"{np.mean(walls):.1f}" if walls else "",
                             "sample_failures": "", "status": "aggregate"})

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(out_rows)
    print(f"wrote {len(out_rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_check_impl(args) -> int:
    family, inst = parse_instance(read_json(args.instance))
    game = _encode(family, inst)
    result = check_implementability(game)
    if result.bi_hierarchical:
        parts = result.witness_labels(game)
        print("bi-hierarchical: true")
        for idx, part in enumerate(parts):
            print(f"  family {idx + 1}: {', '.join(part) or '(empty)'}")
    else:
        print("bi-hierarchical: false")
        print("  odd crossing cycle: " + " / ".join(result.witness_labels(game)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ara", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="write a random instance")
    gen.add_argument("--family", choices=["fams", "tsg"], required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--flights", type=int, default=10)
    gen.add_argument("--schedules", type=int, default=10)
    gen.add_argument("--targets-per-schedule", type=int, default=2)
    gen.add_argument("--resources", type=int, default=3)
    gen.add_argument("--risk-levels", type=int, default=2)
    gen.add_argument("--resource-types", type=int, default=3)
    gen.add_argument("--team-types", type=int, default=3)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    solve.add_argument("--cutoff-s", type=float, default=DEFAULT_CUTOFF_S)
    solve.add_argument("--out")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser("check-impl", help="test whether all marginals are implementable")
    check.add_argument("--instance", required=True)
    check.set_defaults(func=_cmd_check_impl)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GameError, LpError, SamplingFailure, SolveTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
