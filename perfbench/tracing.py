"""Spans and counters around the solver's layers, recorded from outside it.

``Patches`` replaces a module or class attribute with a wrapper and puts the
original back on ``remove``.  Wrappers go where the callers look the
function up (``ara.cli.estimate_mixed``, not ``ara.sampling.estimate_mixed``),
because ``from x import f`` binds a name of its own in the caller.

``Capture`` keeps the last result of the calls whose outputs the checks
need; it is installed for every run.  ``Tracer`` records one span per call
(name, parent, CPU start and end) plus counters, only in the traced run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Patches:
    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Capture(Patches):
    """Keep the marginal solution, the sample estimate and the column
    generation result of the solve in progress."""

    def __init__(self, ara_cli):
        super().__init__()
        self.last = {}
        for attr in ("solve_marginal", "estimate_mixed", "fams_column_generation"):
            self.wrap(ara_cli, attr, self._keeper(attr))

    def _keeper(self, attr):
        def make(original):
            def kept(*args, **kwargs):
                out = original(*args, **kwargs)
                self.last[attr] = out
                return out
            return kept
        return make

    def take(self) -> dict:
        out, self.last = self.last, {}
        return out


class Tracer(Patches):
    """Per-call CPU spans on the layers' public functions.

    Span records are ``[name, parent index, start, end]`` with CPU times from
    ``time.process_time``; counters are summed per name, maxima kept apart.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []

    def install(self):
        import ara.cli
        import ara.fams
        import ara.lp
        import ara.marginal
        import ara.sampling
        import ara.tsg
        cli, fams = ara.cli, ara.fams
        self.wrap(cli, "run_method", self._span("solve"))
        self.wrap(cli, "encode_fams", self._span("encode"))
        self.wrap(cli, "encode_tsg", self._span("encode"))
        self.wrap(fams, "encode_fams", self._span("encode"))
        self.wrap(cli, "to_pe0", self._span("to_pe0"))
        self.wrap(cli, "solve_marginal", self._span("marginal"))
        for owner in (ara.marginal, fams, ara.lp):
            self.wrap(owner, "solve_lp", self._span("lp", self._note_lp))
        self.wrap(cli, "estimate_mixed", self._span("estimate", self._note_estimate))
        self.wrap(ara.sampling, "game_value", self._span("game_value"))
        for fixer in (fams.FamsFixer, ara.tsg.TsgFixer):
            self.wrap(fixer, "fix_inequalities", self._span("repair.ineq", self._note_ineq))
            self.wrap(fixer, "fix_equalities", self._span("repair.eq", self._note_eq))
        self.wrap(cli, "tsg_detection_ratio", self._span("detection"))
        self.wrap(cli, "fams_column_generation", self._span("cg", self._note_cg))
        self.wrap(fams, "fams_dbr", self._span("dbr"))

    def _span(self, name: str, note=None):
        spans, stack, clock = self.spans, self._stack, time.process_time

        def make(original):
            def traced(*args, **kwargs):
                rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[2] = clock()
                try:
                    out = original(*args, **kwargs)
                finally:
                    rec[3] = clock()
                    stack.pop()
                if note is not None:
                    note(args, out)
                return out
            return traced
        return make

    # counters: each note sees the wrapped call's arguments and result

    def _note_lp(self, args, sol):
        prog = args[0]
        rows, cols = len(prog.rows), prog.num_vars
        self.maxima["lp.rows"] = max(self.maxima["lp.rows"], rows)
        self.maxima["lp.cols"] = max(self.maxima["lp.cols"], cols)
        self.maxima["lp.tableau_mb"] = max(self.maxima["lp.tableau_mb"], rows * cols * 8 / 1e6)

    def _note_estimate(self, args, result):
        samples = result.estimate.samples
        self.counts["samples"] += len(samples)
        self.counts["retries"] += result.sample_failures
        self.counts["distinct"] += len({s.values.tobytes() for s in samples})
        self.counts["estimates"] += 1

    def _note_ineq(self, args, out):
        x, pe0 = args[1], args[2]
        n = pe0.source_cols
        self.counts["decrements"] += int(x.sum() - out.sum())
        self.counts["cells_set"] += int(x[:, :n].sum())
        self.counts["cells_kept"] += int(out[:, :n].sum())

    def _note_eq(self, args, out):
        self.counts["refills"] += int(out.sum() - args[1].sum())

    def _note_cg(self, args, result):
        self.counts["cg.iterations"] += result.iterations
        self.counts["cg.columns"] += len(result.strategies)
        self.counts["cg.support"] += int(np.count_nonzero(result.weights > 1e-9))

    def layer_metrics(self, instances: int) -> dict:
        """Per-instance means of span times and counters over ``instances``
        traced instances (all methods of one instance count as one)."""
        n = max(instances, 1)
        dur = [end - start for _name, _parent, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for idx, (_name, parent, _s, _e) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[idx]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        master = 0.0
        for idx, (name, parent, _s, _e) in enumerate(self.spans):
            total[name] += dur[idx]
            own[name] += dur[idx] - child[idx]
            calls[name] += 1
            if name == "lp" and parent >= 0 and self.spans[parent][0] == "cg":
                master += dur[idx]
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "encode_s": total["encode"] / n,
            "sampling.to_pe0_s": total["to_pe0"] / n,
            "marginal.build_s": own["marginal"] / n,
            "lp.solve_s": total["lp"] / n,
            "lp.calls": calls["lp"] / n,
            "lp.rows.max": self.maxima["lp.rows"],
            "lp.cols.max": self.maxima["lp.cols"],
            "lp.tableau_mb.max": self.maxima["lp.tableau_mb"],
            "sampling.estimate_s": total["estimate"] / n,
            "sampling.comb_check_s": own["estimate"] / n,
            "sampling.samples": c["samples"] / n,
            "sampling.retries": c["retries"] / n,
            "sampling.accept_ratio": ratio(c["samples"], c["samples"] + c["retries"]),
            "sampling.distinct_pure": ratio(c["distinct"], c["estimates"]),
            "repair.ineq_s": total["repair.ineq"] / n,
            "repair.eq_s": total["repair.eq"] / n,
            "repair.decrements": c["decrements"] / n,
            "repair.refills": c["refills"] / n,
            "repair.kept_ratio": ratio(c["cells_kept"], c["cells_set"]),
            "eval.detection_s": total["detection"] / n,
            "eval.game_value_s": total["game_value"] / n,
            "cg.iterations": c["cg.iterations"] / n,
            "cg.master_s": master / n,
            "cg.dbr_s": total["dbr"] / n,
            "cg.support_ratio": ratio(c["cg.support"], c["cg.columns"]),
        }
