"""Dense two-phase simplex solver with a deterministic pivot rule.

It solves the one form of program this package builds: max c.x subject to
rows a.x <= b, a.x >= b or a.x = b, and x >= ``lower``, a finite bound per
variable (0 by default).  There are no upper bounds besides the rows, and
a non-finite lower bound raises ``LpError``.  Sized for the moderate LPs
this package produces (a few thousand columns).  Pivoting uses Dantzig's
rule with lowest-index tie-breaking and falls back to Bland's rule after a
degenerate stall, so the solver cannot cycle and re-solving an identical
program gives bit-identical output.  A program whose dense tableau would
pass ``MAX_TABLEAU_BYTES`` is refused with an ``LpError`` before anything
of that size is allocated.

Cost of a pivot.  Pricing is one matrix-vector product over the whole
tableau.  The ratio test divides over the eligible rows only.  The
elimination costs (rows the entering column touches) x (columns): when
fewer than half the rows are touched, only those rows are updated, and the
whole tableau otherwise (``_SPARSE_SHARE``).  A row with a zero factor
would be left as it is either way, so both give the same tableau.

Warm start.  An optimal solve returns its final tableau as an ``LpState``
on the solution.  ``LinearProgram.add_column`` appends a variable with
lower bound 0, so it needs no shift, and ``solve_lp(prog, warm=state)``
then appends B^-1 a for each new column and runs phase 2 only, from the
old basis.  B^-1 is the tableau's slack/artificial columns, which started
as the identity.  Appending a column leaves the basic solution as it was,
so that basis is still primal feasible, and the artificials stay banned.
Only columns may be appended: a new variable with a nonzero lower bound, a
row added since the state was taken, or the state of another program
raises ``LpError``.  The primal check and the dual read-out run as after a
cold solve.  Where the program has tied optima, a warm solve may end at
another optimal vertex than a cold solve of the same program: the same
objective value, other values and duals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

FEAS_TOL = 1e-7
# a column prices in while its reduced cost is above this
OPT_TOL = 1e-9

# a solve may take this many pivots per tableau row and column
PIVOT_CAP_FACTOR = 50

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_PIVOTS = 40

# A pivot eliminates only the rows the entering column touches when they are
# fewer than this share of all rows, and the whole tableau otherwise.  The
# row-sparse update gathers and scatters the rows it touches: on 163 x 400
# and 201 x 600 tableaux (2-vCPU x86-64 KVM guest, one BLAS thread) it took
# 0.1x the whole-tableau time at 3 % of the rows, 0.7x at 50 %, 1.15x at
# 75 % and 5-6x at 95-100 %.
_SPARSE_SHARE = 0.5

# sense of a row: +1 for <=, 0 for =, -1 for >=
_SENSE = {"<=": 1, "=": 0, ">=": -1}

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
    """max c.x subject to rows, with x >= lower (finite, default 0)."""

    num_vars: int
    objective: np.ndarray = None
    rows: list[LpRow] = field(default_factory=list)
    lower: np.ndarray = None
    # the coefficients of each variable appended by add_column, by row
    columns: dict[int, dict[int, float]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        else:
            self.objective = np.asarray(self.objective, dtype=float)
        if self.lower is None:
            self.lower = np.zeros(self.num_vars)

    def add_row(self, coeffs: dict[int, float], relation: str, rhs: float, label: str = "") -> None:
        if relation not in ("<=", "=", ">="):
            raise LpError(f"unknown relation {relation!r}")
        for j in coeffs:
            if not 0 <= j < self.num_vars:
                raise LpError(f"coefficient on unknown variable {j}")
        self.rows.append(LpRow(dict(coeffs), relation, float(rhs), label))

    def add_column(self, coeffs_by_row: dict[int, float], cost: float) -> int:
        """Append a variable x >= 0 with the given row coefficients and
        objective coefficient; returns its index."""
        for r in coeffs_by_row:
            if not 0 <= r < len(self.rows):
                raise LpError(f"coefficient on unknown row {r}")
        j = self.num_vars
        self.num_vars += 1
        self.objective = np.append(self.objective, float(cost))
        self.lower = np.append(self.lower, 0.0)
        self.columns[j] = {r: float(a) for r, a in sorted(coeffs_by_row.items())}
        for r, a in self.columns[j].items():
            self.rows[r].coeffs[j] = a
        return j


@dataclass(frozen=True, eq=False)
class LpState:
    """The final canonical tableau of an optimal solve, for a warm start.

    Tableau rows are the program's rows; rows with a negative right-hand
    side were negated (``flip``).  Variable j sits in tableau column
    ``col_of[j]``, shifted down by its lower bound ``shift[j]``.
    ``marker[i]`` is the slack or artificial column that started as row
    i's identity column.  A warm solve copies these arrays and never
    writes to them.
    """

    program: LinearProgram
    tableau: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray
    costs: np.ndarray    # phase-2 cost of every tableau column
    banned: np.ndarray   # artificial columns
    flip: np.ndarray
    marker: np.ndarray
    col_of: np.ndarray
    shift: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]  # program rows: (row, var, coeff)
    row_rhs: np.ndarray    # program rows' right-hand sides
    row_sense: np.ndarray  # program rows' relations, as in _SENSE


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None = None  # shadow price per row, in input order
    infeasible_rows: tuple[str, ...] = ()
    pivots: int = 0  # phase-1 plus phase-2 pivots of this call
    state: LpState | None = None  # set when optimal


def solve_lp(lp: LinearProgram, warm: LpState | None = None) -> LpSolution:
    """Solve ``lp``, max c.x over ``<=``/``>=``/``=`` rows with x >= a finite
    ``lp.lower``, to optimality, or report infeasible/unbounded status.

    With ``warm``, the state of an earlier optimal solve of ``lp``, the
    columns appended since are priced in and phase 2 resumes from its basis
    (see the module docstring).  Raises LpError on a non-finite objective
    or lower bound, and when a phase takes more than ``PIVOT_CAP_FACTOR`` x
    (rows + tableau columns) pivots, which on these well-scaled programs
    indicates a numerical stall rather than a hard instance.
    """
    if not np.all(np.isfinite(lp.objective)):
        raise LpError("objective has non-finite coefficients")
    infinite = ~np.isfinite(lp.lower)
    if infinite.any():
        j = int(np.argmax(infinite))
        raise LpError(f"variable {j} has lower bound {lp.lower[j]}; lower bounds must be finite")
    s = _tableau(lp) if warm is None else _append_columns(warm, lp)
    T, b, basis = s.tableau, s.rhs, s.basis
    nr, total = T.shape
    cap = PIVOT_CAP_FACTOR * (nr + total)

    pivots = 0
    if warm is None and np.any(s.banned):
        c1 = np.where(s.banned, -1.0, 0.0)
        status, pivots = _pivot_loop(T, b, basis, c1, banned=None, cap=cap)
        if status != "optimal":
            raise LpError("phase-1 auxiliary program cannot be unbounded")
        art_val = sum(b[i] for i in range(nr) if s.banned[basis[i]])
        if art_val > FEAS_TOL * max(1.0, float(np.max(np.abs(b))) if nr else 1.0):
            bad = tuple(lp.rows[i].label or f"row {i}" for i in range(nr)
                        if s.banned[basis[i]] and b[i] > FEAS_TOL)
            return LpSolution("infeasible", None, None, None, bad, pivots=pivots)

    status, phase2 = _pivot_loop(T, b, basis, s.costs, banned=s.banned, cap=cap)
    pivots += phase2
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=pivots)

    x_int = np.zeros(total)
    x_int[basis] = b
    values = x_int[s.col_of] + s.shift
    objective_value = float(np.dot(lp.objective, values))

    # Reduced cost of a row's slack/artificial column is -y_i for the
    # canonical row; undo the sign flip applied during canonicalization.
    red = s.costs - T.T @ s.costs[basis]
    duals = -red[s.marker] * s.flip

    _verify_primal(lp, s, values)
    return LpSolution("optimal", values, objective_value, duals, pivots=pivots, state=s)


def _tableau(lp: LinearProgram) -> LpState:
    """The canonical starting tableau: lower bounds shifted to zero, rhs >= 0,
    a slack column for each ``<=`` row, surplus plus artificial for ``>=``,
    artificial for ``=``; the slacks and artificials form the basis."""
    nr, nv = len(lp.rows), lp.num_vars
    shift = np.array(lp.lower, dtype=float)

    counts = [len(row.coeffs) for row in lp.rows]
    nnz = sum(counts)
    e_row = np.repeat(np.arange(nr), counts)
    e_var = np.fromiter((j for row in lp.rows for j in row.coeffs), np.int64, nnz)
    e_val = np.fromiter((a for row in lp.rows for a in row.coeffs.values()), float, nnz)
    finite = np.isfinite(e_val)
    if not finite.all():
        i = int(e_row[np.argmin(finite)])
        raise LpError(f"row {lp.rows[i].label or i} has non-finite coefficient")

    rhs = np.array([row.rhs for row in lp.rows], dtype=float)
    sense = np.array([_SENSE[row.relation] for row in lp.rows], dtype=np.int64)
    b = rhs.copy()
    # ufunc.at subtracts in entry order, term by term, as a loop over each row would
    np.subtract.at(b, e_row, e_val * shift[e_var])
    flip = np.where(b < 0, -1.0, 1.0)
    b *= flip
    surplus = np.where(flip < 0, -sense, sense) < 0  # the >= rows after the flip

    # extra columns in row order: slack (<=), surplus then artificial (>=),
    # artificial (=); marker is the slack or artificial
    n_extra = np.where(surplus, 2, 1)
    first = nv + np.cumsum(n_extra) - n_extra
    marker = first + surplus
    total = nv + int(n_extra.sum())
    if nr * total * 8 > MAX_TABLEAU_BYTES:
        raise LpError(f"the dense tableau of {nr} rows x {total} columns would take "
                      f"{nr * total * 8 / 2**30:.1f} GiB, past the "
                      f"{MAX_TABLEAU_BYTES / 2**30:g} GiB limit")

    T = np.zeros((nr, total))
    T[e_row, e_var] = e_val * flip[e_row]
    T[np.arange(nr), marker] = 1.0
    T[surplus.nonzero()[0], first[surplus]] = -1.0
    banned = np.zeros(total, dtype=bool)
    banned[marker[(sense == 0) | surplus]] = True

    costs = np.zeros(total)
    costs[:nv] = lp.objective
    return LpState(lp, T, b, marker.copy(), costs, banned, flip, marker,
                   np.arange(nv), shift, (e_row, e_var, e_val), rhs, sense)


def _append_columns(s: LpState, lp: LinearProgram) -> LpState:
    """``s`` with the variables appended to ``lp`` since it was taken: each
    new tableau column is B^-1 times its canonical column.  The coefficients
    come from ``lp.columns``, so no row is searched for them."""
    if s.program is not lp:
        raise LpError("warm state was taken from another program")
    nr, old = s.tableau.shape
    if len(lp.rows) != nr:
        raise LpError(f"warm state has {nr} rows, the program {len(lp.rows)}: "
                      "rows were added since it was taken")
    nv = len(s.col_of)
    if np.any(lp.lower[nv:] != 0.0):
        raise LpError("a warm start takes only appended variables with lower bound 0")
    new = [lp.columns[j] for j in range(nv, lp.num_vars)]
    counts = [len(col) for col in new]
    nnz = sum(counts)
    e_var = np.repeat(np.arange(nv, lp.num_vars), counts)
    e_row = np.fromiter((i for col in new for i in col), np.int64, nnz)
    e_val = np.fromiter((a for col in new for a in col.values()), float, nnz)
    finite = np.isfinite(e_val)
    if not finite.all():
        i = int(e_row[np.argmin(finite)])
        raise LpError(f"row {lp.rows[i].label or i} has non-finite coefficient")

    q = lp.num_vars - nv
    a = np.zeros((nr, q))
    a[e_row, e_var - nv] = e_val
    cols = s.tableau[:, s.marker] @ (s.flip[:, None] * a)
    rows, var, val = s.entries
    return replace(
        s, tableau=np.hstack([s.tableau, cols]), rhs=s.rhs.copy(),
        basis=s.basis.copy(), costs=np.concatenate([s.costs, lp.objective[nv:]]),
        banned=np.concatenate([s.banned, np.zeros(q, dtype=bool)]),
        col_of=np.concatenate([s.col_of, old + np.arange(q)]),
        shift=np.concatenate([s.shift, np.zeros(q)]),
        entries=(np.concatenate([rows, e_row]), np.concatenate([var, e_var]),
                 np.concatenate([val, e_val])))


def _pivot_loop(T, b, basis, costs, banned, cap) -> tuple[str, int]:
    """Primal simplex iterations on the canonical tableau; returns the
    status and the number of pivots made.

    ``banned`` marks artificial columns during phase 2: they may not enter,
    and a basic artificial row crossed by the entering column leaves at
    ratio zero so the artificial can never grow back above zero.
    """
    nr, total = T.shape
    art_rows = np.zeros(nr, dtype=bool)  # phase 1 has no banned columns
    bland = False
    stall = 0
    last_obj = float(costs[basis] @ b)
    for pivots in range(cap):
        red = costs - T.T @ costs[basis]
        if banned is not None:
            red[banned] = -np.inf
        red[basis] = -np.inf
        if bland:
            cand = np.nonzero(red > OPT_TOL)[0]
            if cand.size == 0:
                return "optimal", pivots
            enter = int(cand[0])
        else:
            enter = int(np.argmax(red))
            if red[enter] <= OPT_TOL:
                return "optimal", pivots

        col = T[:, enter]
        elig = col > FEAS_TOL
        if banned is not None:
            art_rows = banned[basis] & (np.abs(col) > FEAS_TOL)
            elig |= art_rows
        idx = np.flatnonzero(elig)
        if idx.size == 0:
            return "unbounded", pivots
        ratios = b[idx] / col[idx]
        ratios[art_rows[idx]] = 0.0
        ties = idx[ratios <= ratios.min() + 1e-12]
        if ties.size == 1:
            leave = int(ties[0])
        else:
            # prefer driving artificials out, then Bland's lowest basis index
            leave = int(ties[np.lexsort((basis[ties], ~art_rows[ties]))[0]])

        piv = T[leave, enter]
        T[leave] /= piv
        b[leave] /= piv
        factors = col.copy()
        factors[leave] = 0.0
        # a zero factor leaves its row as it is, so only the rows the
        # entering column touches are eliminated (see _SPARSE_SHARE)
        rows = np.flatnonzero(factors)
        if rows.size < _SPARSE_SHARE * nr:
            T[rows] -= np.outer(factors[rows], T[leave])
            b[rows] -= factors[rows] * b[leave]
        else:
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


def _verify_primal(lp: LinearProgram, s: LpState, values: np.ndarray) -> None:
    """Check ``values`` against every row and lower bound of ``lp``, as the
    state ``s`` of its solve holds them.  ``s.entries`` are the rows'
    coefficients as (row, var, coeff) arrays, each row's in the order of its
    coefficient dict; ``np.bincount`` adds each row's terms in that order,
    as a loop over the row would."""
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(values))))
    e_row, e_var, e_val = s.entries
    act = np.bincount(e_row, weights=e_val * values[e_var], minlength=len(lp.rows))
    rhs, sense = s.row_rhs, s.row_sense
    bad = np.where(sense > 0, act > rhs + tol,
                   np.where(sense < 0, act < rhs - tol, np.abs(act - rhs) > tol))
    if bad.any():
        i = int(np.argmax(bad))
        row = lp.rows[i]
        raise LpError(f"solution violates {row.label or f'row {i}'}: "
                      f"{float(act[i])} {row.relation} {row.rhs}")
    if np.any(values < lp.lower - tol):
        raise LpError("solution violates variable bounds")
