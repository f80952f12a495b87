"""Dense two-phase simplex solver with a deterministic pivot rule.

Sized for the moderate LPs this package produces (a few thousand columns).
Pivoting uses Dantzig's rule with lowest-index tie-breaking and falls back
to Bland's rule after a degenerate stall, so the solver cannot cycle and
re-solving an identical program gives bit-identical output.  A program
whose dense tableau would pass ``MAX_TABLEAU_BYTES`` is refused with an
``LpError`` before anything of that size is allocated.

Warm start.  An optimal solve returns its final tableau as an ``LpState``
on the solution.  ``LinearProgram.add_column`` appends a nonnegative
variable (lower bound 0, no upper bound, so it needs no bound row and no
shift), and ``solve_lp(prog, warm=state)`` then appends B^-1 a for each new
column and runs phase 2 only, from the old basis.  B^-1 is the tableau's
slack/artificial columns, which started as the identity.  Appending a
column leaves the basic solution as it was, so that basis is still primal
feasible, and the artificials stay banned.  Only columns may be appended:
a new variable with other bounds, a row added since the state was taken,
or the state of another program raises ``LpError``.  The primal check and
the dual read-out run as after a cold solve.  Where the program has tied
optima, a warm solve may end at another optimal vertex than a cold solve
of the same program: the same objective value, other values and duals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

FEAS_TOL = 1e-7
OPT_TOL = 1e-7

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_PIVOTS = 40

_NEGATED = {"<=": ">=", ">=": "<=", "=": "="}

# largest dense tableau (rows x columns of float64) a solve may allocate
MAX_TABLEAU_BYTES = 1 << 30


class LpError(Exception):
    """Malformed program, an oversized tableau, a bad warm start, or a
    solver stall past the iteration cap."""


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

    def add_column(self, coeffs_by_row: dict[int, float], cost: float) -> int:
        """Append a variable in [0, inf) with the given row coefficients and
        objective coefficient; returns its index."""
        for r in coeffs_by_row:
            if not 0 <= r < len(self.rows):
                raise LpError(f"coefficient on unknown row {r}")
        j = self.num_vars
        self.num_vars += 1
        self.objective = np.append(self.objective, float(cost))
        self.lower = np.append(self.lower, 0.0)
        self.upper = np.append(self.upper, np.inf)
        for r, a in coeffs_by_row.items():
            self.rows[r].coeffs[j] = float(a)
        return j

    def set_bounds(self, j: int, lower: float = 0.0, upper: float = np.inf) -> None:
        self.lower[j] = lower
        self.upper[j] = upper


@dataclass(frozen=True, eq=False)
class LpState:
    """The final canonical tableau of an optimal solve, for a warm start.

    Tableau rows are the program's rows, then one bound row per finite
    upper bound; rows with a negative right-hand side were negated
    (``flip``).  Variable j sits in tableau column ``col_of[j]`` (and the
    next one, negated, when ``split``), shifted down by ``shift[j]``.
    ``marker[i]`` is the slack or artificial column that started as row
    i's identity column.  A warm solve copies these arrays and never
    writes to them.
    """

    program: LinearProgram
    num_rows: int
    tableau: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray
    costs: np.ndarray    # phase-2 cost of every tableau column
    banned: np.ndarray   # artificial columns
    flip: np.ndarray
    marker: np.ndarray
    col_of: np.ndarray
    split: np.ndarray
    shift: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]  # program rows: (row, var, coeff)


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None = None  # shadow price per row, in input order
    infeasible_rows: tuple[str, ...] = ()
    pivots: int = 0  # phase-1 plus phase-2 pivots of this call
    state: LpState | None = None  # set when optimal


def solve_lp(lp: LinearProgram, feas_tol: float = FEAS_TOL, opt_tol: float = OPT_TOL,
             iter_cap: int | None = None, warm: LpState | None = None) -> LpSolution:
    """Solve ``lp`` to optimality, or report infeasible/unbounded status.

    Finite variable bounds become internal rows; free variables are split.
    With ``warm``, the state of an earlier optimal solve of ``lp``, the
    columns appended since are priced in and phase 2 resumes from its basis
    (see the module docstring).  Raises LpError when the pivot count
    exceeds the iteration cap, which on these well-scaled programs
    indicates a numerical stall rather than a hard instance.
    """
    if not np.all(np.isfinite(lp.objective)):
        raise LpError("objective has non-finite coefficients")
    s = _tableau(lp) if warm is None else _append_columns(warm, lp)
    T, b, basis = s.tableau, s.rhs, s.basis
    nr, total = T.shape
    cap = iter_cap if iter_cap is not None else 50 * (nr + total)

    pivots = 0
    if warm is None and np.any(s.banned):
        c1 = np.where(s.banned, -1.0, 0.0)
        status, pivots = _pivot_loop(T, b, basis, c1, banned=None, feas_tol=feas_tol,
                                     opt_tol=opt_tol, cap=cap)
        if status != "optimal":
            raise LpError("phase-1 auxiliary program cannot be unbounded")
        art_val = sum(b[i] for i in range(nr) if s.banned[basis[i]])
        if art_val > feas_tol * max(1.0, float(np.max(np.abs(b))) if nr else 1.0):
            bad = tuple(lp.rows[i].label or f"row {i}" for i in range(s.num_rows)
                        if s.banned[basis[i]] and b[i] > feas_tol)
            return LpSolution("infeasible", None, None, None, bad, pivots=pivots)

    status, phase2 = _pivot_loop(T, b, basis, s.costs, banned=s.banned, feas_tol=feas_tol,
                                 opt_tol=opt_tol, cap=cap)
    pivots += phase2
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=pivots)

    x_int = np.zeros(total)
    x_int[basis] = b
    head = x_int[s.col_of]
    tail = x_int[np.minimum(s.col_of + 1, total - 1)]
    values = np.where(s.split, head - tail, head + s.shift)
    objective_value = float(np.dot(lp.objective, values))

    # Reduced cost of a row's slack/artificial column is -y_i for the
    # canonical row; undo the sign flip applied during canonicalization.
    red = s.costs - T.T @ s.costs[basis]
    duals = -red[s.marker[:s.num_rows]] * s.flip[:s.num_rows]

    _verify_primal(lp, s.entries, values, feas_tol)
    return LpSolution("optimal", values, objective_value, duals, pivots=pivots, state=s)


def _tableau(lp: LinearProgram) -> LpState:
    """The canonical starting tableau: rhs >= 0, a slack column for each
    ``<=`` row, surplus plus artificial for ``>=``, artificial for ``=``;
    the slacks and artificials form the basis."""
    n_user = len(lp.rows)
    # Internalize variables: shift finite lower bounds to zero, split free
    # variables into a positive/negative pair.
    split = np.isneginf(lp.lower)
    shift = np.where(split, 0.0, lp.lower)
    width = np.where(split, 2, 1)
    col_of = np.cumsum(width) - width
    n_struct = int(width.sum())

    counts = [len(row.coeffs) for row in lp.rows]
    nnz = sum(counts)
    e_row = np.repeat(np.arange(n_user), counts)
    e_var = np.fromiter((j for row in lp.rows for j in row.coeffs), np.int64, nnz)
    e_val = np.fromiter((a for row in lp.rows for a in row.coeffs.values()), float, nnz)
    finite = np.isfinite(e_val)
    if not finite.all():
        i = int(e_row[np.argmin(finite)])
        raise LpError(f"row {lp.rows[i].label or i} has non-finite coefficient")

    # one internal "<=" row per finite upper bound, after the program's rows
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    nr = n_user + len(bounded)
    rows = np.concatenate([e_row, n_user + np.arange(len(bounded))])
    var = np.concatenate([e_var, bounded])
    val = np.concatenate([e_val, np.ones(len(bounded))])

    b = np.concatenate([[row.rhs for row in lp.rows], lp.upper[bounded]])
    # ufunc.at subtracts in entry order, term by term, as a loop over each row would
    np.subtract.at(b, rows, val * shift[var])
    flip = np.where(b < 0, -1.0, 1.0)
    b *= flip
    relations = [row.relation for row in lp.rows] + ["<="] * len(bounded)
    rel = np.array([_NEGATED[r] if f < 0 else r for r, f in zip(relations, flip)], dtype="<U2")

    # extra columns in row order: slack (<=), surplus then artificial (>=),
    # artificial (=); marker is the slack or artificial
    n_extra = np.where(rel == ">=", 2, 1)
    first = n_struct + np.cumsum(n_extra) - n_extra
    marker = first + (rel == ">=")
    total = n_struct + int(n_extra.sum())
    if nr * total * 8 > MAX_TABLEAU_BYTES:
        raise LpError(f"the dense tableau of {nr} rows x {total} columns would take "
                      f"{nr * total * 8 / 2**30:.1f} GiB, past the "
                      f"{MAX_TABLEAU_BYTES / 2**30:g} GiB limit")

    T = np.zeros((nr, total))
    cols = col_of[var]
    T[rows, cols] = val * flip[rows]
    neg = split[var]
    T[rows[neg], cols[neg] + 1] = -val[neg] * flip[rows[neg]]
    T[np.arange(nr), marker] = 1.0
    surplus = rel == ">="
    T[surplus.nonzero()[0], first[surplus]] = -1.0
    banned = np.zeros(total, dtype=bool)
    banned[marker[rel != "<="]] = True

    costs = np.zeros(total)
    costs[col_of] = lp.objective
    costs[col_of[split] + 1] = -lp.objective[split]
    return LpState(lp, n_user, T, b, marker.copy(), costs, banned, flip, marker,
                   col_of, split, shift, (e_row, e_var, e_val))


def _append_columns(s: LpState, lp: LinearProgram) -> LpState:
    """``s`` with the variables appended to ``lp`` since it was taken: each
    new tableau column is B^-1 times its canonical column."""
    if s.program is not lp:
        raise LpError("warm state was taken from another program")
    if len(lp.rows) != s.num_rows:
        raise LpError(f"warm state has {s.num_rows} rows, the program {len(lp.rows)}: "
                      "rows were added since it was taken")
    nv = len(s.col_of)
    new = range(nv, lp.num_vars)
    if np.any(lp.lower[nv:] != 0.0) or np.any(np.isfinite(lp.upper[nv:])):
        raise LpError("a warm start takes only appended variables in [0, inf)")
    e_row, e_var, e_val = [], [], []
    for j in new:
        for i, row in enumerate(lp.rows):
            a = row.coeffs.get(j)
            if a is not None:
                e_row.append(i)
                e_var.append(j)
                e_val.append(a)
    e_row, e_var = np.array(e_row, dtype=np.int64), np.array(e_var, dtype=np.int64)
    e_val = np.array(e_val, dtype=float)
    finite = np.isfinite(e_val)
    if not finite.all():
        i = int(e_row[np.argmin(finite)])
        raise LpError(f"row {lp.rows[i].label or i} has non-finite coefficient")

    nr, old = s.tableau.shape
    q = len(new)
    a = np.zeros((nr, q))
    a[e_row, e_var - nv] = e_val
    cols = s.tableau[:, s.marker] @ (s.flip[:, None] * a)
    rows, var, val = s.entries
    return replace(
        s, tableau=np.hstack([s.tableau, cols]), rhs=s.rhs.copy(),
        basis=s.basis.copy(), costs=np.concatenate([s.costs, lp.objective[nv:]]),
        banned=np.concatenate([s.banned, np.zeros(q, dtype=bool)]),
        col_of=np.concatenate([s.col_of, old + np.arange(q)]),
        split=np.concatenate([s.split, np.zeros(q, dtype=bool)]),
        shift=np.concatenate([s.shift, np.zeros(q)]),
        entries=(np.concatenate([rows, e_row]), np.concatenate([var, e_var]),
                 np.concatenate([val, e_val])))


def _pivot_loop(T, b, basis, costs, banned, feas_tol, opt_tol, cap) -> tuple[str, int]:
    """Primal simplex iterations on the canonical tableau; returns the
    status and the number of pivots made.

    ``banned`` marks artificial columns during phase 2: they may not enter,
    and a basic artificial row crossed by the entering column leaves at
    ratio zero so the artificial can never grow back above zero.
    """
    nr, total = T.shape
    bland = False
    stall = 0
    last_obj = float(costs[basis] @ b)
    for pivots in range(cap):
        red = costs - T.T @ costs[basis]
        if banned is not None:
            red = np.where(banned, -np.inf, red)
        red[basis] = -np.inf
        if bland:
            cand = np.nonzero(red > opt_tol)[0]
            if cand.size == 0:
                return "optimal", pivots
            enter = int(cand[0])
        else:
            enter = int(np.argmax(red))
            if red[enter] <= opt_tol:
                return "optimal", pivots

        col = T[:, enter]
        elig = col > feas_tol
        art_rows = np.zeros(nr, dtype=bool)
        if banned is not None:
            art_rows = banned[basis] & (np.abs(col) > feas_tol)
            elig = elig | art_rows
        if not np.any(elig):
            return "unbounded", pivots
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


def _verify_primal(lp: LinearProgram, entries, values: np.ndarray, tol: float) -> None:
    """Check ``values`` against every row and bound of ``lp``.  ``entries``
    are the rows' coefficients as (row, var, coeff) arrays, each row's in
    the order of its coefficient dict; ``np.bincount`` adds each row's
    terms in that order, as a loop over the row would."""
    scale = max(1.0, float(np.max(np.abs(values))))
    e_row, e_var, e_val = entries
    s = np.bincount(e_row, weights=e_val * values[e_var], minlength=len(lp.rows))
    rhs = np.array([row.rhs for row in lp.rows])
    rel = np.array([row.relation for row in lp.rows], dtype="<U2")
    bad = np.where(rel == "<=", s > rhs + tol * scale,
                   np.where(rel == ">=", s < rhs - tol * scale, np.abs(s - rhs) > tol * scale))
    if bad.any():
        i = int(np.argmax(bad))
        row = lp.rows[i]
        raise LpError(f"solution violates {row.label or f'row {i}'}: "
                      f"{float(s[i])} {row.relation} {row.rhs}")
    if np.any(values < lp.lower - tol * scale) or np.any(values > lp.upper + tol * scale):
        raise LpError("solution violates variable bounds")
