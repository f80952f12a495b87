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

Cost of a pivot.  The tableau stores the nonbasic columns only, the
compact or "dictionary" tableau (Chvatal, *Linear Programming*, 1983,
ch. 7-8): a basic column is a unit vector, which elimination leaves as it
is.  ``LpState.nonbasic`` maps each stored column to its index in the full
layout, and Dantzig's and Bland's rules break ties by the lowest full
index, as they did over the full tableau.  Pricing is one matrix-vector
product over the stored columns while two or more basic columns have a
nonzero cost, where the order of its sum matters.  With at most one, as
through phase 2 of a maximin master or a single-type marginal LP, it reads
that one row: every other term of the product is an exact zero, so
``nb_costs - c_i * T[i]`` gives the same floats.  The loop counts the
costed basic rows on each swap.  The ratio test divides over the eligible
rows only; in phase 2 a basic artificial that the entering column crosses
leaves at ratio zero.  A per-row flag, cleared when the row's artificial
leaves, says which rows hold one, and the loop counts them: while none
does (always in phase 1, which bans no column), the ratio test reads no
flag and a tie goes to the lowest basis index, the row the flagged
tie-break would pick.  The elimination subtracts the outer product of the factors
and the pivot row, built by ``np.einsum``: the same IEEE products as
``np.outer``, in about two thirds of its time at 201 x 202, but added into
a zero, so +0.0 where ``np.outer`` gave -0.0.  Its cost is (rows the
entering column touches) x (stored columns): when fewer than half the rows
are touched, only those rows are updated, and the whole tableau otherwise
(``_SPARSE_SHARE``).  A row with a zero factor would be
left as it is either way, so both give the same tableau, up to the sign of
a zero, which reaches no output.  Then the leaving variable's unit column,
pivoted as the full tableau pivots it (0.0 - factor * (1 / pivot), and
1 / pivot in the pivot row), takes the entering column's slot.  Pivots,
values, duals and warm starts are bit for bit those of the full-tableau
solver this one replaced.

Warm start.  An optimal solve returns its final tableau as an ``LpState``
on the solution.  ``LinearProgram.add_column`` appends a variable with
lower bound 0, so it needs no shift, and ``solve_lp(prog, warm=state)``
then appends B^-1 a for each new column and runs phase 2 only, from the
old basis.  B^-1 is the slack/artificial columns of the full tableau,
which started as the identity.  ``_full_tableau`` rebuilds that tableau,
C-ordered, from the stored columns and the unit vectors of the basis; B^-1
is gathered from it, which lays it out in Fortran order, and the dual
read-out takes its matrix-vector product over it.  Both products then run
the BLAS kernels they ran on the full tableau: over the stored columns
alone the duals, and from a C-ordered B^-1 the new columns, came out up to
1 ulp apart.  Appending a column leaves the basic solution as it was, so
that basis is still primal feasible, and the artificials stay banned.
Only columns may be appended: a new variable with a nonzero lower bound, a
row added since the state was taken, or the state of another program
raises ``LpError``.  The state holds no coefficients or costs: a warm solve
reads both from the program as it is then, edited objective coefficients
included.  The primal check and the dual read-out run as after a cold
solve.  Where the program has tied optima, a warm solve may end at another
optimal vertex than a cold solve of the same program: the same objective
value, other values and duals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# row-sparse update gathers and scatters the rows it touches.  Timed with the
# einsum update at the widths of the stored columns, 201 x 202 and 163 x 242
# (2-vCPU x86-64 KVM guest, one BLAS thread), it took 0.25x the
# whole-tableau time at 3 % of the rows, 0.85x at 40 %, 0.95-1.05x at 50 %,
# 1.1-1.15x at 60 %, 1.3-1.4x at 75 %, 1.6-1.75x at 95 % and 6x at 100 %, so
# the share stays where the two break even.  Outputs do not depend on it.
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
    relation: str  # "<=", "=", ">="
    rhs: float
    label: str = ""


@dataclass
class LinearProgram:
    """max c.x subject to rows, with x >= lower (finite, default 0).

    The coefficients live only in ``entries``, in the order they came in:
    ``add_row``'s in its dict's order and ``add_column``'s by row, each
    checked once on the way in.  ``rows`` holds relations, rhs and labels,
    and ``rhs_and_sense`` the same rhs and relations as arrays."""

    num_vars: int
    objective: np.ndarray = None
    lower: np.ndarray = None
    rows: list[LpRow] = field(default_factory=list, init=False)

    def __post_init__(self):
        # the entries added since ``entries`` was last read, as (row, var, coeff)
        # lists, and the rows' (rhs, sense) since ``rhs_and_sense`` was
        self._new = ([], [], [])
        self._entries = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        self._new_bounds = ([], [])
        self._bounds = (np.zeros(0), np.zeros(0, np.int64))
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        else:
            self.objective = np.asarray(self.objective, dtype=float)
        if self.lower is None:
            self.lower = np.zeros(self.num_vars)

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every coefficient as (row, var, coeff) arrays, not to be written
        to.  A read extends them by the entries added since the last."""
        if self._new[0]:
            self._entries = _extended(self._entries, self._new)
            self._new = ([], [], [])
        return self._entries

    @property
    def rhs_and_sense(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's right-hand side and relation, the latter as in
        ``_SENSE``, not to be written to; extended on read like ``entries``."""
        if self._new_bounds[0]:
            self._bounds = _extended(self._bounds, self._new_bounds)
            self._new_bounds = ([], [])
        return self._bounds

    def add_row(self, coeffs: dict[int, float], relation: str, rhs: float, label: str = "") -> None:
        if relation not in ("<=", "=", ">="):
            raise LpError(f"unknown relation {relation!r}")
        for j in coeffs:
            if not 0 <= j < self.num_vars:
                raise LpError(f"coefficient on unknown variable {j}")
        i = len(self.rows)
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise LpError(f"row {label or i} has non-finite right-hand side {rhs}")
        self._add([i] * len(coeffs), list(coeffs), list(coeffs.values()), f"row {label or i}")
        self.rows.append(LpRow(relation, rhs, label))
        self._new_bounds[0].append(rhs)
        self._new_bounds[1].append(_SENSE[relation])

    def add_column(self, coeffs_by_row: dict[int, float], cost: float) -> int:
        """Append a variable x >= 0 with the given row coefficients and
        objective coefficient; returns its index."""
        for r in coeffs_by_row:
            if not 0 <= r < len(self.rows):
                raise LpError(f"coefficient on unknown row {r}")
        j = self.num_vars
        rows = sorted(coeffs_by_row)
        self._add(rows, [j] * len(rows), [coeffs_by_row[r] for r in rows], f"column {j}")
        self.num_vars += 1
        self.objective = np.append(self.objective, float(cost))
        self.lower = np.append(self.lower, 0.0)
        return j

    def _add(self, rows: list, var: list, coeffs: list, where: str) -> None:
        if not all(map(math.isfinite, coeffs)):
            raise LpError(f"{where} has non-finite coefficient")
        for new, part in zip(self._new, (rows, var, coeffs)):
            new.extend(part)


def _extended(arrays: tuple, new: tuple) -> tuple:
    """Each of ``arrays`` with the items of its list in ``new`` appended."""
    return tuple(np.concatenate([old, np.array(items, old.dtype)])
                 for old, items in zip(arrays, new))


@dataclass(frozen=True, eq=False)
class LpState:
    """The final canonical tableau of an optimal solve, for a warm start.

    Tableau rows are the program's rows; rows with a negative right-hand
    side were negated (``flip``).  Columns are numbered in the full layout:
    the variables, then each row's slack, surplus or artificial.  Variable j
    is column ``col_of[j]``, shifted down by its lower bound ``shift[j]``,
    and ``marker[i]`` is the slack or artificial column that started as row
    i's identity column.  ``tableau`` stores only the nonbasic columns: its
    column k is full column ``nonbasic[k]``.  Full column ``basis[i]`` is
    row i's unit vector and is not stored.  A warm solve copies these
    arrays and never writes to them.
    """

    program: LinearProgram
    tableau: np.ndarray
    nonbasic: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray
    banned: np.ndarray   # artificial columns
    flip: np.ndarray
    marker: np.ndarray
    col_of: np.ndarray
    shift: np.ndarray


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
    T, b, basis, nonbasic = s.tableau, s.rhs, s.basis, s.nonbasic
    nr = len(b)
    total = nr + T.shape[1]
    cap = PIVOT_CAP_FACTOR * (nr + total)

    pivots = 0
    if warm is None and np.any(s.banned):
        c1 = np.where(s.banned, -1.0, 0.0)
        status, pivots = _pivot_loop(T, b, basis, nonbasic, c1, banned=None, cap=cap)
        if status != "optimal":
            raise LpError("phase-1 auxiliary program cannot be unbounded")
        art_val = sum(b[i] for i in range(nr) if s.banned[basis[i]])
        if art_val > FEAS_TOL * max(1.0, float(np.max(np.abs(b))) if nr else 1.0):
            bad = tuple(lp.rows[i].label or f"row {i}" for i in range(nr)
                        if s.banned[basis[i]] and b[i] > FEAS_TOL)
            return LpSolution("infeasible", None, None, None, bad, pivots=pivots)

    costs = np.zeros(total)
    costs[s.col_of] = lp.objective
    status, phase2 = _pivot_loop(T, b, basis, nonbasic, costs, banned=s.banned, cap=cap)
    pivots += phase2
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=pivots)

    x_int = np.zeros(total)
    x_int[basis] = b
    values = x_int[s.col_of] + s.shift
    objective_value = float(np.dot(lp.objective, values))

    # Reduced cost of a row's slack/artificial column is -y_i for the
    # canonical row; undo the sign flip applied during canonicalization.
    red = costs - _full_tableau(s).T @ costs[basis]
    duals = -red[s.marker] * s.flip

    _verify_primal(lp, values)
    return LpSolution("optimal", values, objective_value, duals, pivots=pivots, state=s)


def _tableau(lp: LinearProgram) -> LpState:
    """The canonical starting tableau: lower bounds shifted to zero, rhs >= 0,
    a slack column for each ``<=`` row, surplus plus artificial for ``>=``,
    artificial for ``=``; the slacks and artificials form the basis."""
    nr, nv = len(lp.rows), lp.num_vars
    shift = np.array(lp.lower, dtype=float)
    e_row, e_var, e_val = lp.entries
    rhs, sense = lp.rhs_and_sense
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

    sur = surplus.nonzero()[0]
    nonbasic = np.concatenate([np.arange(nv), first[sur]])
    T = np.zeros((nr, len(nonbasic)))
    T[e_row, e_var] = e_val * flip[e_row]
    T[sur, nv + np.arange(len(sur))] = -1.0
    banned = np.zeros(total, dtype=bool)
    banned[marker[(sense == 0) | surplus]] = True
    return LpState(lp, T, nonbasic, b, marker.copy(), banned, flip, marker, np.arange(nv), shift)


def _append_columns(s: LpState, lp: LinearProgram) -> LpState:
    """``s`` with the variables appended to ``lp`` since it was taken: each
    new tableau column is B^-1 times its canonical column, from its entries."""
    if s.program is not lp:
        raise LpError("warm state was taken from another program")
    nr = len(s.rhs)
    if len(lp.rows) != nr:
        raise LpError(f"warm state has {nr} rows, the program {len(lp.rows)}: "
                      "rows were added since it was taken")
    nv = len(s.col_of)
    if (lp.lower[nv:] != 0.0).any():
        raise LpError("a warm start takes only appended variables with lower bound 0")
    e_row, e_var, e_val = lp.entries
    new = e_var >= nv
    q = lp.num_vars - nv
    a = np.zeros((nr, q))
    a[e_row[new], e_var[new] - nv] = e_val[new]
    cols = _full_tableau(s)[:, s.marker] @ (s.flip[:, None] * a)
    added = nr + s.tableau.shape[1] + np.arange(q)
    return LpState(lp, np.hstack([s.tableau, cols]), np.concatenate([s.nonbasic, added]),
                   s.rhs.copy(), s.basis.copy(),
                   np.concatenate([s.banned, np.zeros(q, dtype=bool)]), s.flip, s.marker,
                   np.concatenate([s.col_of, added]), np.concatenate([s.shift, np.zeros(q)]))


def _full_tableau(s: LpState) -> np.ndarray:
    """The full tableau of ``s``, C-ordered: the stored columns at
    ``nonbasic`` and row i's unit vector at column ``basis[i]`` (see the
    module docstring for why the products start from it)."""
    nr, nb = s.tableau.shape
    full = np.zeros((nr, nr + nb))
    full[:, s.nonbasic] = s.tableau
    full[np.arange(nr), s.basis] = 1.0
    return full


def _pivot_loop(T, b, basis, nonbasic, costs, banned, cap) -> tuple[str, int]:
    """Primal simplex iterations on the canonical tableau of the nonbasic
    columns; returns the status and the number of pivots made.

    ``costs`` and ``banned`` are indexed by full column.  ``banned`` marks
    artificial columns during phase 2: they may not enter, and a basic
    artificial row crossed by the entering column leaves at ratio zero so
    the artificial can never grow back above zero.  Ties between entering
    columns go to the lowest full column index.
    """
    nr = len(b)
    if T.shape[1] == 0:  # no column can enter
        return "optimal", 0
    # the costs of the basic and the nonbasic columns; a banned column
    # costs -inf, so that its reduced cost is -inf and it never enters
    priced = costs if banned is None else np.where(banned, -np.inf, costs)
    basic_costs = costs[basis]
    nb_costs = priced[nonbasic]
    # how many basic columns have a nonzero cost, and the row of the one
    costed = np.count_nonzero(basic_costs)
    crow = int(basic_costs.nonzero()[0][0]) if costed == 1 else None
    # the rows whose basic column is artificial (phase 1 bans none), and how many
    art = np.zeros(nr, dtype=bool) if banned is None else banned[basis]
    arts = np.count_nonzero(art)
    bland = False
    stall = 0
    last_obj = float(basic_costs @ b)
    for pivots in range(cap):
        if costed > 1:
            red = nb_costs - T.T @ basic_costs
        elif costed:  # every other term of the product is an exact zero
            red = nb_costs - basic_costs[crow] * T[crow]
        else:
            red = nb_costs
        # the array methods skip the dispatch of their np.* functions,
        # which on the small column-generation masters is much of a pivot
        if bland:
            cand = (red > OPT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", pivots
            enter = int(cand[nonbasic[cand].argmin()])
        else:
            enter = int(red.argmax())
            if red[enter] <= OPT_TOL:
                return "optimal", pivots
            ties = (red == red[enter]).nonzero()[0]
            if ties.size > 1:
                enter = int(ties[nonbasic[ties].argmin()])

        col = T[:, enter]
        if arts:
            art_rows = art & (np.abs(col) > FEAS_TOL)
            idx = ((col > FEAS_TOL) | art_rows).nonzero()[0]
        else:
            idx = (col > FEAS_TOL).nonzero()[0]
        if idx.size == 0:
            return "unbounded", pivots
        ratios = b[idx] / col[idx]
        if arts:
            ratios[art_rows[idx]] = 0.0
        ties = idx[ratios <= ratios[ratios.argmin()] + 1e-12]
        if ties.size == 1:
            leave = int(ties[0])
        elif arts:
            # prefer driving artificials out, then Bland's lowest basis index
            leave = int(ties[np.lexsort((basis[ties], ~art_rows[ties]))[0]])
        else:
            leave = int(ties[basis[ties].argmin()])

        piv = T[leave, enter]
        T[leave] /= piv
        b[leave] /= piv
        factors = col.copy()
        factors[leave] = 0.0
        # a zero factor leaves its row as it is, so only the rows the
        # entering column touches are eliminated (see _SPARSE_SHARE)
        rows = factors.nonzero()[0]
        if rows.size < _SPARSE_SHARE * nr:
            T[rows] -= np.einsum("i,j->ij", factors[rows], T[leave])
            b[rows] -= factors[rows] * b[leave]
        else:
            T -= np.einsum("i,j->ij", factors, T[leave])
            b -= factors * b[leave]
        np.maximum(b, 0.0, out=b)
        # the leaving variable's unit column, pivoted as the whole tableau
        # would pivot it, takes the entering column's slot
        inv = 1.0 / piv
        factors *= inv
        np.subtract(0.0, factors, out=col)
        col[leave] = inv
        left = basis[leave]
        basis[leave], nonbasic[enter] = nonbasic[enter], left
        was, now = basic_costs[leave], nb_costs[enter]
        basic_costs[leave], nb_costs[enter] = now, priced[left]
        if (was != 0.0) != (now != 0.0):
            costed += 1 if now != 0.0 else -1
            if costed == 1:
                crow = int(basic_costs.nonzero()[0][0])
        if art[leave]:  # an artificial never enters
            art[leave] = False
            arts -= 1

        cur = float(basic_costs @ b)
        if cur > last_obj + 1e-12:
            bland = False
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_PIVOTS:
                bland = True
        last_obj = cur
    raise LpError(f"simplex exceeded iteration cap of {cap} pivots")


def _verify_primal(lp: LinearProgram, values: np.ndarray) -> None:
    """Check ``values`` against every row and lower bound of ``lp``.
    ``np.bincount`` adds each row's terms in entry order, which is the order
    a loop over the row's own coefficients, then its appended columns',
    would take."""
    tol = FEAS_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))
    e_row, e_var, e_val = lp.entries
    act = np.bincount(e_row, weights=e_val * values[e_var], minlength=len(lp.rows))
    rhs, sense = lp.rhs_and_sense
    bad = np.where(sense > 0, act > rhs + tol,
                   np.where(sense < 0, act < rhs - tol, np.abs(act - rhs) > tol))
    if bad.any():
        i = int(np.argmax(bad))
        row = lp.rows[i]
        raise LpError(f"solution violates {row.label or f'row {i}'}: "
                      f"{float(act[i])} {row.relation} {row.rhs}")
    if np.any(values < lp.lower - tol):
        raise LpError("solution violates variable bounds")
