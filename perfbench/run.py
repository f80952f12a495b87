"""Seeded benchmark of the ara solvers, timed in single-threaded CPU seconds.

    python3 perfbench/run.py --workload fams-rand --seed 0 --seconds 25 --trace 0

The workload's instances come from ``ara.generators`` with the given seed and
pass through ``ara.jsonio``.  One client then solves them one after another
in this process through ``ara.cli.run_method``: one untimed warm-up solve,
then whole rounds until the CPU budget ``--seconds`` would be overrun.
Between solves it times a fixed piece of reference work (``calibrate.py``),
and it reports times at the reference speed, so that the host's drift in
speed leaves the figures.  Every output is checked against computations
made apart from the program (``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

Exit codes: 0 result printed, 1 a check failed (result printed with
``correct`` false), 2 no result (bad arguments, no ``ara`` sources).
"""

import os

# One BLAS thread, set before NumPy loads; the set-up probes inherit it.
# With two BLAS threads the dense simplex burns more CPU for no wall-time gain.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from tracing import Capture, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, SetupError, ensure_ara, make_instances  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
# reference work between solves, as a share of the solve CPU time
REFERENCE_SHARE = 0.1
PROBE_TIMEOUT_S = 60

# metric names and units, as the benchmark declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="CPU budget; whole rounds run while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def probe_setup(name: str, seed: int, digests: list) -> dict:
    """Set up the workload in a fresh interpreter, which reports its own CPU time."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    if rec["digests"] != digests:
        raise SetupError("set-up probe generated other instances than this process")
    return rec


class Bench:
    """One run: solve the items in rounds, check every output, collect times."""

    def __init__(self, work, items):
        # imported here: ensure_ara() has put this checkout's src on the path
        import ara.cli
        self.cli = ara.cli
        self.work = work
        self.items = items
        self.samples = work.samples or ara.cli.DEFAULT_SAMPLES
        self.data = [checks.FamsData(item.instance) if item.family == "fams"
                     else checks.TsgData(item.instance) for item in items]
        self.capture = Capture(ara.cli)
        self.attempted = 0
        self.failed = 0
        self.records = [dict(gen_seed=item.gen_seed, digest=item.digest) for item in items]

    def solve(self, idx: int):
        """All methods of the workload on item ``idx``: (CPU s, wall s)."""
        item = self.items[idx]
        cpu = wall = 0.0
        for method in self.work.methods:
            self.attempted += 1
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                report = self.cli.run_method(item.family, item.instance, method, item.gen_seed,
                                             samples=self.samples, digest=item.digest)
            except Exception:  # a failed operation is counted, not fatal
                cpu += time.process_time() - c0
                wall += time.perf_counter() - w0
                self.failed += 1
                self.capture.take()
                print(f"operation failed: {self.work.name} gen_seed={item.gen_seed} {method}",
                      file=sys.stderr)
                traceback.print_exc()
                continue
            cpu += time.process_time() - c0
            wall += time.perf_counter() - w0
            self.check_output(idx, method, report, self.capture.take())
        return cpu, wall

    def check_output(self, idx: int, method: str, report, got: dict) -> None:
        """Checks that need the large outputs run at once, outside the timed
        region, so the samples can be dropped before the next solve."""
        data, rec = self.data[idx], self.records[idx]
        where = f"{self.work.name} gen_seed={self.items[idx].gen_seed} {method}"
        if method == "rand":
            ms, est = got["solve_marginal"], got["estimate_mixed"]
            if report.upper_bound != ms.upper_bound or report.value != est.value:
                raise checks.CheckFailed(f"{where}: report disagrees with the solver's results")
            samples = [s.values for s in est.estimate.samples]
            checks.check_rand(data, samples, report.value, report.upper_bound, where)
            if self.work.family == "tsg":
                checks.check_detection(data, ms.x_m.values, samples, report.detection_ratio, where)
            rec.update(value=report.value, bound=report.upper_bound)
        elif method == "cg":
            cg = got["fams_column_generation"]
            if report.value != cg.value:
                raise checks.CheckFailed(f"{where}: report disagrees with the solver's result")
            columns = [s.values for s in cg.strategies]
            checks.check_cg_mixture(data, columns, cg.weights, report.value, where)
            rec.update(value=report.value, columns=columns)
        elif method == "marginal-bound":
            rec.update(bound=report.upper_bound)

    def final_checks(self) -> None:
        """HiGHS checks, once per distinct instance, after the timed loop."""
        for idx, rec in enumerate(self.records):
            if "value" not in rec or "bound" not in rec:
                continue  # an operation on this instance failed
            where = f"{self.work.name} gen_seed={rec['gen_seed']}"
            rec["highs_bound"] = checks.check_bound(self.data[idx], rec["bound"], where)
            if rec["value"] > rec["bound"] + checks.VALUE_TOL * max(1.0, abs(rec["bound"])):
                raise checks.CheckFailed(f"{where}: value {rec['value']!r} exceeds the bound")
            if "columns" in rec:
                rec["cert_columns"] = checks.cg_certificate(self.data[idx], rec.pop("columns"),
                                                            rec["value"], where)

    def value_over_bound(self) -> float:
        return statistics.fmean(rec["value"] / rec["bound"] for rec in self.records
                                if "value" in rec and "bound" in rec)


def run_rounds(budget_s: float, one_round) -> int:
    """Whole rounds while the next one, as long as the last, fits the CPU budget."""
    start = time.process_time()
    rounds = 0
    while True:
        r0 = time.process_time()
        one_round()
        rounds += 1
        now = time.process_time()
        if now - start + (now - r0) > budget_s:
            return rounds


def run(args) -> tuple:
    work = WORKLOADS[args.workload]
    ensure_ara()
    setup = make_instances(work, args.seed)
    digests = [item.digest for item in setup.items]

    bench = Bench(work, setup.items)
    solve_cpu, solve_wall = [], []
    overhead = []
    probes = []
    # probes run between solves, outside the timed region, so that they
    # sample the machine's speed across the run rather than in one burst
    probe_every = max(1, len(setup.items) // SETUP_PROBES)
    tracer = Tracer() if args.trace else None

    def solve_one(idx: int) -> None:
        if tracer is None:
            cpu, wall = bench.solve(idx)
        else:
            # alternate which side runs first so cache warmth favours neither
            times = {}
            for traced in ((False, True) if idx % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    times[traced] = bench.solve(idx)
                finally:
                    tracer.remove()
            overhead.append(times[True][0] - times[False][0])
            cpu, wall = times[False]
        solve_cpu.append(cpu)
        solve_wall.append(wall)
        speed.after(cpu)

    def one_round() -> None:
        for idx in range(len(setup.items)):
            solve_one(idx)
            if len(probes) < SETUP_PROBES and idx % probe_every == 0:
                probes.append(probe_setup(work.name, args.seed, digests))

    speed = SpeedProbe(REFERENCE_SHARE)
    w_start = time.perf_counter()
    try:
        for item in setup.items:
            if item.instance != item.original:
                raise checks.CheckFailed(f"gen_seed={item.gen_seed}: instance changed "
                                         "in the JSON round trip")
        # warm-up: one checked solve, untimed, so that lazy imports and
        # first-call costs stay out of the timed rounds
        bench.solve(0)
        speed.after(0.0)
        rounds = run_rounds(args.seconds, one_round)
        run_wall = time.perf_counter() - w_start
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(work.name, args.seed, digests))
        # high-water mark of the solves; SciPy is first imported by the checks below
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        c0 = time.perf_counter()
        bench.final_checks()
        checks_wall = time.perf_counter() - c0
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": bench.attempted, "failed": bench.failed,
                "metrics": {}}, None
    finally:
        speed.close()

    factor = speed.speed_factor()
    med = {key: statistics.median(p[key] for p in probes)
           for key in ("setup_s", "import_s", "gen_s", "roundtrip_s")}
    if args.trace:
        metrics = {"import_s": med["import_s"], "generators.gen_s": med["gen_s"],
                   "jsonio.roundtrip_s": med["roundtrip_s"]}
        metrics.update(tracer.layer_metrics(len(overhead)))
        metrics["trace.overhead_s"] = statistics.fmean(overhead)
        units = PER_LAYER_UNITS
    else:
        # times at the reference speed; the raw CPU times are in the detail
        metrics = {"setup_s": med["setup_s"] * factor,
                   "solve_cpu_s.p50": statistics.median(solve_cpu) * factor,
                   "solves_per_cpu_s": len(solve_cpu) / (sum(solve_cpu) * factor),
                   "peak_rss_mb": peak_rss_mb,
                   "value_over_bound": bench.value_over_bound()}
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {"correct": True, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    detail = {"workload": work.name, "seed": args.seed, "trace": args.trace, "rounds": rounds,
              "instances": len(setup.items), "candidates": setup.candidates,
              "uncovered_rejected": setup.uncovered, "infeasible_rejected": setup.infeasible,
              "solve_cpu_s": solve_cpu, "solve_wall_s": solve_wall,
              "solve_cpu_total_s": sum(solve_cpu), "solve_wall_total_s": sum(solve_wall),
              "speed_factor": factor, "reference_s": speed.samples,
              "run_wall_s": run_wall, "final_checks_wall_s": checks_wall,
              "setup_probes": probes, "records": bench.records, "trace_overhead_s": overhead}
    if tracer is not None:
        detail["spans"] = tracer.spans
    return result, detail


def report(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{detail['instances']} instances x {detail['rounds']} round(s), "
          f"{result['attempted']} operations, {result['failed']} failed")
    n = len(detail["solve_cpu_s"])
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
    print(f"  samples: {n} untraced instance solves, {len(detail['setup_probes'])} set-up probes")
    print(f"  reference: solve CPU total {detail['solve_cpu_total_s']:.3f} s, "
          f"solve wall total {detail['solve_wall_total_s']:.3f} s, "
          f"run wall {detail['run_wall_s']:.3f} s")
    print(f"  speed factor {detail['speed_factor']:.4f} from {len(detail['reference_s'])} "
          f"reference samples; raw solve CPU median {statistics.median(detail['solve_cpu_s']):.4f} s")
    if detail["trace"]:
        print(f"  trace overhead base: {len(detail['trace_overhead_s'])} traced/untraced pairs")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, detail = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if detail is None:
        print(json.dumps(result))
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "detail": detail}) + "\n")
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
