"""Independent checks of solver outputs, written from the instance data alone.

Nothing here calls into ``ara``: constraint checks, game values and the
detection ratio are recomputed with NumPy from the instance fields, the
marginal bound is re-solved with HiGHS (``scipy.optimize.linprog``) and the
column-generation value is certified with HiGHS MILP best responses.  Each
check raises ``CheckFailed`` with a message naming the instance.
"""

from __future__ import annotations

import numpy as np

BOUND_RTOL = 1e-6    # marginal bound against HiGHS
VALUE_TOL = 1e-9     # reported value against the recomputed one (same arithmetic)
CG_TOL = 1e-6        # column-generation value, mixture and best-response gain


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class FamsData:
    """Air-marshal instance as arrays: rows are marshals, columns schedules."""

    def __init__(self, inst):
        self.k = inst.num_marshals
        self.n = len(inst.schedules)
        flights = list(inst.flights)
        self.F = len(flights)
        fidx = {f.id: i for i, f in enumerate(flights)}
        self.incidence = np.zeros((self.n, self.F))   # schedule j covers flight f
        for j, s in enumerate(inst.schedules):
            for fid in s.flights:
                self.incidence[j, fidx[fid]] = 1.0
        self.u_undef = np.array([f.u_undef for f in flights])
        self.delta = np.array([f.u_def - f.u_undef for f in flights])
        col = {s.id: j for j, s in enumerate(inst.schedules)}
        self.forbidden = [(m, col[sid]) for m, sid in sorted(inst.forbidden)]

    def coverage(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=0) @ self.incidence

    def lp_blocks(self):
        """Cell-to-flight coverage (k*n, F) and marshal rows (k, k*n), with
        cell (i, j) as variable i * n + j.  Built on demand: they are large
        and only the checks after the timed loop need them."""
        return (np.kron(np.ones((self.k, 1)), self.incidence),
                np.kron(np.eye(self.k), np.ones((1, self.n))))

    def value(self, x: np.ndarray) -> float:
        return float(np.min(self.u_undef + self.delta * self.coverage(x)))

    def check_pure(self, x: np.ndarray) -> str | None:
        if x.shape != (self.k, self.n):
            return f"shape {x.shape}"
        if np.any(x < 0) or np.any(x != np.rint(x)):
            return "cells not nonnegative integers"
        if np.any(x.sum(axis=1) > 1):
            return "a marshal takes more than one schedule"
        if np.any(self.coverage(x) > 1):
            return "a flight is covered more than once"
        if any(x[m, j] for m, j in self.forbidden):
            return "a forbidden pair is used"
        return None

    def marginal_lp(self):
        """max z s.t. z <= u_undef_f + delta_f cov_f, cov_f <= 1, marshal rows <= 1,
        as (c, A_ub, b_ub, A_eq, b_eq, bounds) for a minimizing ``linprog``."""
        kn = self.k * self.n
        cell_cov, marshal = self.lp_blocks()
        a_ub = np.zeros((2 * self.F + self.k, kn + 1))
        a_ub[:self.F, :kn] = -(cell_cov * self.delta).T
        a_ub[:self.F, kn] = 1.0
        a_ub[self.F:2 * self.F, :kn] = cell_cov.T
        a_ub[2 * self.F:, :kn] = marshal
        b_ub = np.concatenate([self.u_undef, np.ones(self.F + self.k)])
        bounds = [(0, None)] * kn + [(None, None)]
        for m, j in self.forbidden:
            bounds[m * self.n + j] = (0, 0)
        c = np.zeros(kn + 1)
        c[kn] = -1.0
        return c, a_ub, b_ub, None, None, bounds


class TsgData:
    """Screening instance as arrays: rows are teams, columns categories."""

    def __init__(self, inst):
        teams, cats = list(inst.teams), list(inst.categories)
        self.k, self.n = len(teams), len(cats)
        self.passengers = np.array([c.passengers for c in cats], dtype=float)
        self.eff = np.array([t.effectiveness for t in teams])
        self.u_undef = np.array([c.u_undef for c in cats])
        self.delta = np.array([c.u_def - c.u_undef for c in cats])
        rids = [r.id for r in inst.resources]
        self.capacity = np.array([r.capacity for r in inst.resources], dtype=float)
        self.usage = np.array([[t.members.count(r) for t in teams] for r in rids], dtype=float)
        # adversary types that can attack: (probability, category indices)
        self.types = []
        for r in inst.risk_levels:
            idx = np.array([j for j, c in enumerate(cats) if c.risk == r.id], dtype=int)
            if r.probability > 0 and idx.size:
                self.types.append((r.probability, idx))

    def coverage(self, x: np.ndarray) -> np.ndarray:
        return (self.eff @ x) / self.passengers

    def value(self, x: np.ndarray) -> float:
        util = self.u_undef + self.delta * self.coverage(x)
        return float(sum(p * np.min(util[idx]) for p, idx in self.types))

    def check_pure(self, x: np.ndarray) -> str | None:
        if x.shape != (self.k, self.n):
            return f"shape {x.shape}"
        if np.any(x < 0) or np.any(x != np.rint(x)):
            return "cells not nonnegative integers"
        if np.any(x.sum(axis=0) != self.passengers):
            return "a category is not fully screened"
        if np.any(self.usage @ x.sum(axis=1) > self.capacity):
            return "a resource is used beyond its capacity"
        return None

    def marginal_lp(self):
        """max sum_r p_r z_r s.t. z_r <= u_undef_c + delta_c cov_c for c in r,
        column sums equal passengers, resource usage within capacity; same
        form as ``FamsData.marginal_lp``."""
        kn, T, R = self.k * self.n, len(self.types), len(self.capacity)
        # cell (i, j) is variable i * n + j
        cov = np.kron(self.eff, np.eye(self.n)) / self.passengers[:, None]   # (n, k*n)
        a_ub = np.zeros((self.n + R, kn + T))
        b_ub = np.concatenate([np.zeros(self.n), self.capacity])
        for ti, (_p, idx) in enumerate(self.types):
            a_ub[idx, :kn] = -self.delta[idx, None] * cov[idx]
            a_ub[idx, kn + ti] = 1.0
            b_ub[idx] = self.u_undef[idx]
        a_ub[self.n:, :kn] = np.kron(self.usage, np.ones(self.n))
        a_eq = np.zeros((self.n, kn + T))
        a_eq[:, :kn] = np.kron(np.ones(self.k), np.eye(self.n))
        c = np.zeros(kn + T)
        c[kn:] = [-p for p, _idx in self.types]
        bounds = [(0, None)] * kn + [(None, None)] * T
        return c, a_ub, b_ub, a_eq, self.passengers, bounds


def highs_marginal_bound(data) -> float:
    from scipy.optimize import linprog
    c, a_ub, b_ub, a_eq, b_eq, bounds = data.marginal_lp()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckFailed(f"HiGHS marginal LP ended with status {res.status}: {res.message}")
    return float(-res.fun)


def check_bound(data, bound: float, where: str) -> float:
    highs = highs_marginal_bound(data)
    if not _close(bound, highs, BOUND_RTOL):
        raise CheckFailed(f"{where}: marginal bound {bound!r} differs from HiGHS {highs!r}")
    return highs


def check_rand(data, samples, value: float, bound: float, where: str) -> None:
    """Every sample is a valid pure strategy, the reported value is the game
    value of the sample mean, and it does not exceed the bound."""
    total = np.zeros((data.k, data.n))
    for idx, s in enumerate(samples):
        bad = data.check_pure(s)
        if bad:
            raise CheckFailed(f"{where}: sample {idx}: {bad}")
        total += s
    mean = total / len(samples)
    own = data.value(mean)
    if not _close(value, own, VALUE_TOL):
        raise CheckFailed(f"{where}: reported value {value!r}, sample mean gives {own!r}")
    if value > bound + VALUE_TOL * max(1.0, abs(bound)):
        raise CheckFailed(f"{where}: value {value!r} exceeds the bound {bound!r}")


def check_detection(data: TsgData, marginal: np.ndarray, samples, reported: float,
                    where: str) -> None:
    """Minimum over samples and categories of coverage after sampling ÷
    coverage under the marginal; uncovered categories count as 1."""
    before = data.coverage(marginal)
    unc = before < 1e-12
    worst = np.inf
    for s in samples:
        ratio = np.where(unc, 1.0, data.coverage(s) / np.where(unc, 1.0, before))
        worst = min(worst, float(ratio.min()))
    if not _close(reported, worst, VALUE_TOL):
        raise CheckFailed(f"{where}: detection ratio {reported!r}, recomputed {worst!r}")


def check_cg_mixture(data: FamsData, columns, weights, value: float, where: str) -> None:
    """The returned mixture is a distribution over valid pure strategies
    that attains the reported value."""
    if abs(float(np.sum(weights)) - 1.0) > CG_TOL or np.any(np.asarray(weights) < 0):
        raise CheckFailed(f"{where}: column weights are not a distribution")
    for idx, col in enumerate(columns):
        bad = data.check_pure(col)
        if bad:
            raise CheckFailed(f"{where}: column {idx}: {bad}")
    mix = sum(w * np.asarray(col, dtype=float) for w, col in zip(weights, columns))
    own = data.value(mix)
    if not _close(value, own, CG_TOL):
        raise CheckFailed(f"{where}: column-generation value {value!r}, mixture gives {own!r}")


CERT_MAX_COLUMNS = 50


def cg_certificate(data: FamsData, columns, value: float, where: str) -> int:
    """Certify the column-generation value as the exact game value.

    The HiGHS duals of the maximin LP over the columns give an attacker
    distribution y over flights, and no defender pure strategy earns more
    against y than the HiGHS MILP best response.  A gain of at most CG_TOL
    over the value proves the value optimal.  The restricted LP is often
    dual-degenerate, so one optimal y may still admit a better response;
    the best response then joins the columns and the LP is solved again,
    which must leave the value where it was.  Returns the columns added.
    """
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp
    kn = data.k * data.n
    cell_cov, marshal = data.lp_blocks()
    cons = [LinearConstraint(marshal, -np.inf, 1.0), LinearConstraint(cell_cov.T, -np.inf, 1.0)]
    upper = np.ones(kn)
    for i, j in data.forbidden:
        upper[i * data.n + j] = 0.0
    util = [data.u_undef + data.delta * data.coverage(np.asarray(c, dtype=float))
            for c in columns]
    for added in range(CERT_MAX_COLUMNS + 1):
        m = len(util)
        a_ub = np.hstack([-np.stack(util, axis=1), np.ones((data.F, 1))])
        a_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
        c = np.zeros(m + 1)
        c[m] = -1.0
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(data.F), A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0, None)] * m + [(None, None)], method="highs")
        if res.status != 0:
            raise CheckFailed(f"{where}: HiGHS maximin LP ended with status {res.status}")
        lp_value = float(-res.fun)
        if not _close(lp_value, value, CG_TOL):
            raise CheckFailed(f"{where}: maximin LP over {m} columns gives {lp_value!r}, "
                              f"column generation reported {value!r}")
        y = np.maximum(-res.ineqlin.marginals, 0.0)
        if y.sum() <= 0:
            raise CheckFailed(f"{where}: maximin LP duals are all zero")
        y /= y.sum()
        br = milp(-(cell_cov @ (y * data.delta)), integrality=np.ones(kn),
                  bounds=Bounds(np.zeros(kn), upper), constraints=cons,
                  options={"mip_rel_gap": 0.0})
        if br.status != 0:
            raise CheckFailed(f"{where}: HiGHS best-response MILP ended with status {br.status}")
        # the MILP dual bound is a proven upper bound on the best response
        gain = float(y @ data.u_undef) - float(br.mip_dual_bound) - value
        if gain <= CG_TOL * max(1.0, abs(value)):
            return added
        x = np.rint(br.x).reshape(data.k, data.n)
        util.append(data.u_undef + data.delta * data.coverage(x))
    raise CheckFailed(f"{where}: no certificate after {CERT_MAX_COLUMNS} added columns; "
                      f"a best response still gains {gain!r}")
