"""The benchmark's trace contract.

``perfbench/tracing.py`` measures the solver from outside: it wraps
``ara.cli.run_method`` and the layers' functions by name, reads
``LinearProgram.rows`` and ``num_vars``, and takes the fixers' arguments by
position.  These tests run it, unchanged and without importing it as a
package, on two toys, so that a refactor which breaks one of those names
fails here and not only in a traced benchmark run.
"""

import json
import math
import types
from pathlib import Path

import numpy as np

import ara.cli
from ara.fams import FamsFixer

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
# the per-layer metrics perfbench/run.py takes itself, outside the tracer
MEASURED_BY_RUN = {"import_s", "generators.gen_s", "jsonio.roundtrip_s", "trace.overhead_s"}
RUNS = (("fams", ("rand", "cg", "marginal-bound")), ("tsg", ("rand", "marginal-bound")))


def _tracing():
    """``perfbench/tracing.py`` as a module, read without writing bytecode."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _traced_runs(toys):
    tracing = _tracing()
    run_method, fix = ara.cli.run_method, FamsFixer.fix_inequalities
    capture = tracing.Capture(ara.cli)
    tracer = tracing.Tracer()
    kept = {}
    try:
        tracer.install()
        for family, methods in RUNS:
            for method in methods:
                report = ara.cli.run_method(family, toys[family], method, seed=0, samples=20)
                kept[family, method] = report, capture.take()
    finally:
        tracer.remove()
        capture.remove()
    assert ara.cli.run_method is run_method and FamsFixer.fix_inequalities is fix
    return tracer.layer_metrics(len(RUNS)), kept


def test_tracer_reports_every_per_layer_metric(fig1b_fams, fig1c_tsg):
    metrics, _ = _traced_runs({"fams": fig1b_fams, "tsg": fig1c_tsg})
    assert set(metrics) == PER_LAYER - MEASURED_BY_RUN
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["lp.rows.max"] > 0 and metrics["lp.cols.max"] > 0
    assert metrics["lp.calls"] > 0
    assert 0 < metrics["repair.kept_ratio"] <= 1
    assert metrics["cg.iterations"] > 0
    assert metrics["sampling.samples"] == 20


def test_capture_holds_what_the_checks_read(fig1b_fams, fig1c_tsg):
    _, kept = _traced_runs({"fams": fig1b_fams, "tsg": fig1c_tsg})
    for family in ("fams", "tsg"):
        report, got = kept[family, "rand"]
        ms, est = got["solve_marginal"], got["estimate_mixed"]
        assert isinstance(ms.x_m.values, np.ndarray)
        assert (report.upper_bound, report.value) == (ms.upper_bound, est.value)
        assert len(est.estimate.samples) == 20
        assert all(isinstance(s.values, np.ndarray) for s in est.estimate.samples)
    report, got = kept["fams", "cg"]
    cg = got["fams_column_generation"]
    assert report.value == cg.value
    assert len(cg.weights) == len(cg.strategies) > 0
    assert all(isinstance(s.values, np.ndarray) for s in cg.strategies)
    assert set(kept["fams", "marginal-bound"][1]) == {"solve_marginal"}
