"""Dense two-phase simplex solver with a deterministic pivot rule.

Sized for the moderate LPs this package produces (a few thousand columns).
Pivoting uses Dantzig's rule with lowest-index tie-breaking and falls back
to Bland's rule after a degenerate stall, so the solver cannot cycle and
re-solving an identical program gives bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
OPT_TOL = 1e-7

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_PIVOTS = 40


class LpError(Exception):
    """Malformed program or a solver stall past the iteration cap."""


@dataclass
class LpRow:
    coeffs: dict[int, float]
    relation: str  # "<=", "=", ">="
    rhs: float
    label: str = ""


@dataclass
class LinearProgram:
    """max c.x subject to rows, with per-variable bounds (default [0, inf))."""

    num_vars: int
    objective: np.ndarray = None
    rows: list[LpRow] = field(default_factory=list)
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        else:
            self.objective = np.asarray(self.objective, dtype=float)
        if self.lower is None:
            self.lower = np.zeros(self.num_vars)
        if self.upper is None:
            self.upper = np.full(self.num_vars, np.inf)

    def add_row(self, coeffs: dict[int, float], relation: str, rhs: float, label: str = "") -> None:
        if relation not in ("<=", "=", ">="):
            raise LpError(f"unknown relation {relation!r}")
        for j in coeffs:
            if not 0 <= j < self.num_vars:
                raise LpError(f"coefficient on unknown variable {j}")
        self.rows.append(LpRow(dict(coeffs), relation, float(rhs), label))

    def set_bounds(self, j: int, lower: float = 0.0, upper: float = np.inf) -> None:
        self.lower[j] = lower
        self.upper[j] = upper


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None = None  # shadow price per row, in input order
    infeasible_rows: tuple[str, ...] = ()


def solve_lp(lp: LinearProgram, feas_tol: float = FEAS_TOL, opt_tol: float = OPT_TOL,
             iter_cap: int | None = None) -> LpSolution:
    """Solve ``lp`` to optimality, or report infeasible/unbounded status.

    Finite variable bounds become internal rows; free variables are split.
    Raises LpError when the pivot count exceeds the iteration cap, which on
    these well-scaled programs indicates a numerical stall rather than a
    hard instance.
    """
    if not np.all(np.isfinite(lp.objective)):
        raise LpError("objective has non-finite coefficients")

    nv = lp.num_vars
    n_user_rows = len(lp.rows)

    # Internalize variables: shift finite lower bounds to zero, split free
    # variables into a positive/negative pair.  col_of[j] is the first
    # internal column of variable j; split[j] marks a free pair.
    col_of = np.zeros(nv, dtype=int)
    split = np.zeros(nv, dtype=bool)
    shift = np.zeros(nv)
    ncols = 0
    for j in range(nv):
        col_of[j] = ncols
        if np.isneginf(lp.lower[j]):
            split[j] = True
            ncols += 2
        else:
            shift[j] = lp.lower[j]
            ncols += 1

    rows = list(lp.rows)
    row_user = [True] * n_user_rows
    for j in range(nv):
        if np.isfinite(lp.upper[j]):
            rows.append(LpRow({j: 1.0}, "<=", float(lp.upper[j])))
            row_user.append(False)

    nr = len(rows)
    A = np.zeros((nr, ncols))
    b = np.zeros(nr)
    flip = np.ones(nr)
    rel = []
    for i, row in enumerate(rows):
        rhs = row.rhs
        for j, a in row.coeffs.items():
            if not np.isfinite(a):
                raise LpError(f"row {row.label or i} has non-finite coefficient")
            c0 = col_of[j]
            A[i, c0] += a
            if split[j]:
                A[i, c0 + 1] -= a
            else:
                rhs -= a * shift[j]
        b[i] = rhs
        rel.append(row.relation)
    obj = np.zeros(ncols)
    for j in range(nv):
        c0 = col_of[j]
        obj[c0] += lp.objective[j]
        if split[j]:
            obj[c0 + 1] -= lp.objective[j]
    obj_const = float(np.dot(lp.objective, shift))

    # Canonicalize: rhs >= 0, then slack / surplus+artificial columns.
    for i in range(nr):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flip[i] = -1.0
            rel[i] = {"<=": ">=", ">=": "<=", "=": "="}[rel[i]]

    n_struct = ncols
    slack_cols = np.full(nr, -1, dtype=int)
    art_cols = np.full(nr, -1, dtype=int)
    extra = []
    for i in range(nr):
        if rel[i] == "<=":
            extra.append((i, 1.0, "slack"))
        elif rel[i] == ">=":
            extra.append((i, -1.0, "surplus"))
            extra.append((i, 1.0, "art"))
        else:
            extra.append((i, 1.0, "art"))
    total = n_struct + len(extra)
    T = np.zeros((nr, total))
    T[:, :n_struct] = A
    basis = np.full(nr, -1, dtype=int)
    for idx, (i, sign, kind) in enumerate(extra):
        c = n_struct + idx
        T[i, c] = sign
        if kind == "slack":
            slack_cols[i] = c
            basis[i] = c
        elif kind == "art":
            art_cols[i] = c
            basis[i] = c
    marker = np.where(art_cols >= 0, art_cols, slack_cols)

    cap = iter_cap if iter_cap is not None else 50 * (nr + total)
    is_art = np.zeros(total, dtype=bool)
    is_art[art_cols[art_cols >= 0]] = True

    if np.any(is_art):
        c1 = np.where(is_art, -1.0, 0.0)
        status = _pivot_loop(T, b, basis, c1, banned=None, feas_tol=feas_tol,
                             opt_tol=opt_tol, cap=cap)
        if status != "optimal":
            raise LpError("phase-1 auxiliary program cannot be unbounded")
        art_val = sum(b[i] for i in range(nr) if is_art[basis[i]])
        if art_val > feas_tol * max(1.0, float(np.max(np.abs(b))) if nr else 1.0):
            bad = tuple(rows[i].label or f"row {i}" for i in range(nr)
                        if is_art[basis[i]] and b[i] > feas_tol and row_user[i])
            return LpSolution("infeasible", None, None, None, bad)

    c2 = np.zeros(total)
    c2[:n_struct] = obj
    status = _pivot_loop(T, b, basis, c2, banned=is_art, feas_tol=feas_tol,
                         opt_tol=opt_tol, cap=cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    x_int = np.zeros(total)
    x_int[basis] = b
    values = np.empty(nv)
    for j in range(nv):
        c0 = col_of[j]
        values[j] = (x_int[c0] - x_int[c0 + 1]) if split[j] else (x_int[c0] + shift[j])
    objective_value = float(np.dot(lp.objective, values))

    # Reduced cost of a row's slack/artificial column is -y_i for the
    # canonical row; undo the sign flip applied during canonicalization.
    red = c2 - T.T @ c2[basis]
    duals = np.array([-red[marker[i]] * flip[i] for i in range(n_user_rows)])

    _verify_primal(lp, values, feas_tol)
    return LpSolution("optimal", values, objective_value, duals)


def _pivot_loop(T, b, basis, costs, banned, feas_tol, opt_tol, cap) -> str:
    """Primal simplex iterations on the canonical tableau.

    ``banned`` marks artificial columns during phase 2: they may not enter,
    and a basic artificial row crossed by the entering column leaves at
    ratio zero so the artificial can never grow back above zero.
    """
    nr, total = T.shape
    bland = False
    stall = 0
    last_obj = float(costs[basis] @ b)
    for _ in range(cap):
        red = costs - T.T @ costs[basis]
        if banned is not None:
            red = np.where(banned, -np.inf, red)
        red[basis] = -np.inf
        if bland:
            cand = np.nonzero(red > opt_tol)[0]
            if cand.size == 0:
                return "optimal"
            enter = int(cand[0])
        else:
            enter = int(np.argmax(red))
            if red[enter] <= opt_tol:
                return "optimal"

        col = T[:, enter]
        elig = col > feas_tol
        art_rows = np.zeros(nr, dtype=bool)
        if banned is not None:
            art_rows = banned[basis] & (np.abs(col) > feas_tol)
            elig = elig | art_rows
        if not np.any(elig):
            return "unbounded"
        safe_col = np.where(np.abs(col) > feas_tol, col, 1.0)
        ratios = np.where(elig, b / safe_col, np.inf)
        ratios = np.where(art_rows, 0.0, ratios)
        best = np.min(ratios)
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        # prefer driving artificials out, then Bland's lowest basis index
        tie_order = np.lexsort((basis[ties], ~art_rows[ties]))
        leave = int(ties[tie_order[0]])

        piv = T[leave, enter]
        T[leave] /= piv
        b[leave] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        b -= factors * b[leave]
        np.maximum(b, 0.0, out=b)
        basis[leave] = enter

        cur = float(costs[basis] @ b)
        if cur > last_obj + 1e-12:
            bland = False
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_PIVOTS:
                bland = True
        last_obj = cur
    raise LpError(f"simplex exceeded iteration cap of {cap} pivots")


def _verify_primal(lp: LinearProgram, values: np.ndarray, tol: float) -> None:
    scale = max(1.0, float(np.max(np.abs(values))))
    for i, row in enumerate(lp.rows):
        s = sum(a * values[j] for j, a in row.coeffs.items())
        bad = ((row.relation == "<=" and s > row.rhs + tol * scale)
               or (row.relation == ">=" and s < row.rhs - tol * scale)
               or (row.relation == "=" and abs(s - row.rhs) > tol * scale))
        if bad:
            raise LpError(f"solution violates {row.label or f'row {i}'}: {s} {row.relation} {row.rhs}")
    if np.any(values < lp.lower - tol * scale) or np.any(values > lp.upper + tol * scale):
        raise LpError("solution violates variable bounds")
