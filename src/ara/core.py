"""Abstract allocation-game model: types, constraint checks, utilities.

A game allocates k assets (rows) to n objects (columns).  Assignment
constraints bound integer cell-set sums, targets are weighted cell sets
with defended/undefended payoffs, and adversary types partition targets.

A constraint or a target holds its cells as one int64 array of (row, col)
pairs, shape (E, 2), in any order, and one array parallel to it.  Pairs do
not depend on n, so an object carries over unchanged into a game with more
columns.  An object checks only its scalars and the shapes of its arrays;
the game checks every cell and value once, over all objects together
(``CompiledGame``).

All types are immutable after construction (their arrays are read-only)
and the operations are pure functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from ara import lp as lpmod

MARGINAL_TOL = 1e-7
# a game may have at most this many targets per cell
MAX_TARGETS_FACTOR = 64
# a game may have at most this many cells (a k x n float matrix of 1 GiB)
MAX_CELLS = 2 ** 27


class GameError(Exception):
    """Invalid game data or an operation on an unknown target."""


def check_ids(what: str, *ids) -> None:
    """Refuse an id that is not a string: ids are sorted and compared with
    each other, and only strings order among themselves."""
    for value in ids:
        if not isinstance(value, str):
            raise GameError(f"{what} id {value!r} is not a string")


def _cell_arrays(cells, values, what: str, kind: str):
    """``cells`` as int64 (row, col) pairs, shape (E, 2), and ``values``
    (None stays None) as one float per cell, both read-only copies; only
    their shapes are checked here, and their contents by the game."""
    try:
        cells = np.array(cells)
        values = values if values is None else np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged nesting, or not numbers
        raise GameError(f"{what} cells must be (row, col) integer pairs and {kind} numbers") \
            from exc
    if not cells.size:
        cells = np.zeros((0, 2), np.int64)
    elif cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu":
        raise GameError(f"{what} cells must be (row, col) integer pairs")
    if values is not None:
        if values.shape != (len(cells),):
            raise GameError(f"{what} has {values.size} {kind} for {len(cells)} cells")
        values.flags.writeable = False
    cells = cells.astype(np.int64, copy=False)
    cells.flags.writeable = False
    return cells, values


@dataclass(frozen=True, eq=False)
class AssignmentConstraint:
    """Integer interval bound on a weighted cell-set sum.

    ``cells`` holds the (row, col) pairs, shape (E, 2), and ``coeffs`` each
    cell's positive integer usage multiplicity, parallel to them; None means
    all ones.  The constraint is an equality iff lower == upper.
    """

    cells: np.ndarray
    lower: int
    upper: int
    label: str = ""
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        cells, coeffs = _cell_arrays(self.cells, self.coeffs, f"constraint {self.label!r}",
                                     "coefficients")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "coeffs", coeffs)
        if not len(cells):
            raise GameError(f"constraint {self.label!r} has no cells")
        # exact for integers of any size; the compiled game holds bounds as int64
        if not all(abs(v) < math.inf for v in (self.lower, self.upper)):
            raise GameError(f"constraint {self.label!r} has non-finite bounds")
        if not (0 <= self.lower <= self.upper):
            raise GameError(f"constraint {self.label!r} has bad bounds [{self.lower}, {self.upper}]")
        if self.upper >= 2 ** 63:
            raise GameError(f"constraint {self.label!r} bound {self.upper} is past the int64 range")
        if int(self.lower) != self.lower or int(self.upper) != self.upper:
            raise GameError(f"constraint {self.label!r} bounds must be integers")

    @property
    def is_equality(self) -> bool:
        return self.lower == self.upper

    def name(self) -> str:
        return self.label or f"constraint over {len(self.cells)} cells"


@dataclass(frozen=True, eq=False)
class Target:
    """A weighted cell set: ``cells`` holds the (row, col) pairs, shape
    (E, 2), and ``weights`` one weight per cell; a zero weight is a cell
    with no weight."""

    id: str
    cells: np.ndarray
    weights: np.ndarray
    payoff_defended: float
    payoff_undefended: float

    def __post_init__(self):
        check_ids("target", self.id)
        cells, weights = _cell_arrays(self.cells, self.weights, f"target {self.id!r}", "weights")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "weights", weights)
        payoffs = (self.payoff_defended, self.payoff_undefended)
        if not all(isinstance(v, Real) for v in payoffs):
            raise GameError(f"target {self.id!r} payoffs must be numbers")
        try:  # floats, so that the compiled game's payoff arrays are float arrays
            payoffs = tuple(map(float, payoffs))
        except OverflowError:  # an int past the float range
            raise GameError(f"target {self.id!r} has a payoff past the float range") from None
        if not all(map(math.isfinite, payoffs)):
            raise GameError(f"target {self.id!r} has non-finite payoffs")
        object.__setattr__(self, "payoff_defended", payoffs[0])
        object.__setattr__(self, "payoff_undefended", payoffs[1])
        if self.payoff_defended < self.payoff_undefended:
            raise GameError(f"target {self.id!r} prefers being undefended")


@dataclass(frozen=True)
class AdversaryType:
    id: str
    probability: float
    targets: frozenset[str]

    def __post_init__(self):
        check_ids("adversary type", self.id)
        if not 0.0 <= self.probability <= 1.0:
            raise GameError(f"adversary type {self.id!r} has probability {self.probability}")


@dataclass(frozen=True)
class AraGame:
    """k x n allocation game.  Games without explicit adversary types get a
    single type attacking every target with probability one.  Building the
    game compiles it, which checks every cell and value once."""

    k: int
    n: int
    constraints: tuple[AssignmentConstraint, ...]
    targets: tuple[Target, ...]
    adversary_types: tuple[AdversaryType, ...] = ()
    validate_weights: bool = True

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "targets", tuple(self.targets))
        for name, size in (("k", self.k), ("n", self.n)):
            if isinstance(size, bool) or not isinstance(size, Integral):
                raise GameError(f"matrix dimension {name} = {size!r} is not an integer")
        if self.k < 1 or self.n < 1:
            raise GameError("matrix dimensions must be positive")
        if self.k * self.n > MAX_CELLS:
            raise GameError(f"{self.k}x{self.n} cells exceed the {MAX_CELLS} cap")
        if len(self.targets) > self.k * self.n * MAX_TARGETS_FACTOR:
            raise GameError(f"{len(self.targets)} targets exceeds the "
                            f"{self.k * self.n * MAX_TARGETS_FACTOR} cap")
        ids = [t.id for t in self.targets]
        if len(set(ids)) != len(ids):
            raise GameError("duplicate target ids")
        if not self.adversary_types:
            object.__setattr__(self, "adversary_types",
                               (AdversaryType("default", 1.0, frozenset(ids)),))
        else:
            object.__setattr__(self, "adversary_types", tuple(self.adversary_types))
        total_p = sum(a.probability for a in self.adversary_types)
        if abs(total_p - 1.0) > 1e-9:
            raise GameError(f"adversary type probabilities sum to {total_p}")
        seen: set[str] = set()
        for a in self.adversary_types:
            if a.targets & seen:
                raise GameError("adversary types share targets")
            seen |= a.targets
        if seen != set(ids):
            raise GameError("every target must belong to exactly one adversary type")
        self.compiled  # checks the cells, coefficients and weights
        if self.validate_weights:
            _check_weight_bounds(self)

    def target(self, target_id: str) -> Target:
        return self.targets[self.compiled.position(target_id)]

    @cached_property
    def compiled(self) -> "CompiledGame":
        return CompiledGame(self)


def _entries(objs, values, what, k: int, n: int, checks):
    """The cells of ``objs`` as flat indexes i * n + j, ascending within
    each segment (an object, in order), with their ``values`` (one array
    per object) and segments.  A cell outside k x n or repeated within an
    object, or a value failing one of the (mask, problem) ``checks(values)``,
    raises ``GameError`` with ``what(segment)`` naming the object."""
    cells = np.concatenate([np.zeros((0, 2), np.int64), *(o.cells for o in objs)])
    seg = np.repeat(np.arange(len(objs)), [len(o.cells) for o in objs])
    if len(cells) and (cells.min() < 0 or cells[:, 0].max() >= k or cells[:, 1].max() >= n):
        e = int(np.argmax(((cells < 0) | (cells >= (k, n))).any(axis=1)))
        raise GameError(f"{what(seg[e])} references cell {tuple(cells[e].tolist())} "
                        f"outside {k}x{n}")
    flat = cells[:, 0] * n + cells[:, 1]
    # one stable sort by (segment, cell); ``MAX_CELLS`` keeps the key in int64
    order = np.argsort(seg * (k * n) + flat, kind="stable")
    flat, values = flat[order], np.concatenate([np.zeros(0), *values])[order]
    repeated = (flat[1:] == flat[:-1]) & (seg[1:] == seg[:-1])  # ``seg`` is in order
    if repeated.any():
        e = int(np.argmax(repeated))
        raise GameError(f"{what(seg[e])} repeats cell {divmod(int(flat[e]), n)}")
    for bad, problem in checks(values):
        if bad.any():
            raise GameError(f"{what(seg[np.argmax(bad)])} {problem}")
    return flat, values, seg


def _coeff_arrays(constraints):
    """Each constraint's coefficients, ones where it has none (views of one
    array, which is cheaper than an array per constraint)."""
    ones = np.ones(max((len(con.cells) for con in constraints), default=0))
    return (ones[:len(con.cells)] if con.coeffs is None else con.coeffs for con in constraints)


class CompiledGame:
    """A game as flat index arrays; cell (i, j) is index i * n + j.

    Constraint entries (cell, coefficient, segment) and target entries
    (cell, weight, segment) run segment by segment in game order, and
    within a segment in ascending row-major cell order; building them checks
    every cell and value.  ``np.bincount`` adds in entry order, so segment
    sums equal loops over each object's cells in ascending order bit for
    bit; an empty segment (a target with no cells) sums to zero.  Constraint
    sums are the exception: they run cell by cell over a matrix's nonzero
    cells (``cell_constraints``), which is exact for integer strategies and
    may differ from the game-order sum by rounding for real ones.
    """

    def __init__(self, game: AraGame):
        k, n = self.shape = (game.k, game.n)
        cons, targets = game.constraints, game.targets
        self.con_cell, coeff, self.con_seg = _entries(
            cons, _coeff_arrays(cons),
            lambda s: f"constraint {cons[s].label!r}", k, n,
            lambda v: [(~np.isfinite(v), "has non-finite coefficients"),
                       ((v < 1) | (v != np.floor(v)), "coefficients must be positive integers")])
        self.con_coeff = coeff.astype(np.int64)
        self.lower = np.array([con.lower for con in cons], dtype=np.int64)
        self.upper = np.array([con.upper for con in cons], dtype=np.int64)
        self.names = tuple(con.name() for con in cons)
        self.tgt_cell, self.tgt_weight, self.tgt_seg = _entries(
            targets, (t.weights for t in targets), lambda s: f"target {targets[s].id!r}", k, n,
            lambda v: [(~np.isfinite(v), "has non-finite weights"),
                       (v < 0, "has negative weights")])
        self.payoff_defended = np.array([t.payoff_defended for t in targets])
        self.payoff_undefended = np.array([t.payoff_undefended for t in targets])
        self.target_index = {t.id: idx for idx, t in enumerate(targets)}
        type_of = {tid: a_idx for a_idx, a in enumerate(game.adversary_types) for tid in a.targets}
        self.target_type = np.array([type_of[t.id] for t in targets], dtype=np.int64)
        self.num_types = len(game.adversary_types)

    @cached_property
    def cell_constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraint entries cell-major (CSR): ``order[ptr[c]:ptr[c + 1]]``
        are the positions of cell c's entries in ``con_cell``, ascending.
        Both are int32, to keep this second index of the entries small."""
        order = np.argsort(self.con_cell, kind="stable").astype(np.int32)
        ptr = np.zeros(self.shape[0] * self.shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.con_cell, minlength=len(ptr) - 1), out=ptr[1:])
        return ptr, order

    def at_cells(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The constraint entries at each of the flat ``cells``: how many
        there are at each, and their positions, cell by cell and in entry
        order within a cell."""
        ptr, order = self.cell_constraints
        start = ptr[cells]
        lens = ptr[cells + 1] - start
        # entry positions of all those cells, run by run
        return lens, order[np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]

    @cached_property
    def single_row(self) -> np.ndarray:
        """Per constraint, the row of all its cells, or -1 for several rows:
        the rows of its first and last entries, its lowest and highest."""
        size = np.bincount(self.con_seg, minlength=len(self.names))
        last = np.cumsum(size) - 1
        lo, hi = self.con_cell[[last - size + 1, last]] // self.shape[1]
        return np.where(lo == hi, lo, -1)

    @cached_property
    def row_budget(self) -> np.ndarray:
        """Per row, the first constraint over exactly that row's n cells with
        unit coefficients (its budget), or -1."""
        k, n = self.shape
        size = np.bincount(self.con_seg, minlength=len(self.names))
        full = np.flatnonzero((self.single_row >= 0) & (size == n))
        entries = (np.cumsum(size)[full] - n)[:, None] + np.arange(n)  # each one's n entries
        full = full[(self.con_coeff[entries] == 1).all(axis=1)]
        rows, first = np.unique(self.single_row[full], return_index=True)
        out = np.full(k, -1)
        out[rows] = full[first]
        return out

    def constraint_sums(self, matrices) -> np.ndarray:
        """Every constraint's sum in each matrix, shape (len(matrices), C),
        added over each matrix's nonzero cells only."""
        cells, vals = [], []
        for x in matrices:
            x = _values(x)
            if x.shape != self.shape:
                raise GameError(f"strategy shape {x.shape} does not match {self.shape}")
            flat = x.ravel()
            nz = (flat != 0).nonzero()[0]  # cheaper than ``np.flatnonzero`` on integers
            cells.append(nz)
            vals.append(flat[nz])
        rows, count = len(cells), len(self.names)
        owner = np.repeat(np.arange(rows) * count, [len(c) for c in cells])
        empty = np.zeros(0, np.int64)
        lens, entry = self.at_cells(np.concatenate([empty, *cells]))
        weights = np.repeat(np.concatenate([empty, *vals]), lens) * self.con_coeff[entry]
        return np.bincount(np.repeat(owner, lens) + self.con_seg[entry], weights=weights,
                           minlength=rows * count).reshape(rows, count)

    def violations(self, matrices, tol: float = 0.0) -> list[list["Violation"]]:
        """Per matrix, the constraints whose sum leaves its bounds by more
        than ``tol``, in game order."""
        sums = self.constraint_sums(matrices)
        out = [[] for _ in range(len(sums))]
        for r, i in zip(*np.nonzero((sums < self.lower - tol) | (sums > self.upper + tol))):
            out[r].append(Violation(self.names[i], float(sums[r, i]), int(self.lower[i]),
                                    int(self.upper[i])))
        return out

    def position(self, target_id: str) -> int:
        if target_id not in self.target_index:
            raise GameError(f"unknown target {target_id!r}")
        return self.target_index[target_id]

    def coverages(self, x) -> np.ndarray:
        """Per-target coverage: shape (T,) for one matrix, (m, T) for a stack."""
        m = _values(x)
        if m.ndim not in (2, 3) or m.shape[-2:] != self.shape:
            raise GameError(f"strategy shape {m.shape} does not match {self.shape}")
        flat = m.reshape(-1, self.shape[0] * self.shape[1])
        rows, count = len(flat), len(self.target_index)
        seg = (self.tgt_seg + count * np.arange(rows)[:, None]).ravel()
        sums = np.bincount(seg, weights=(flat[:, self.tgt_cell] * self.tgt_weight).ravel(),
                           minlength=rows * count).reshape(rows, count)
        return sums if m.ndim == 3 else sums[0]

    def utilities(self, x) -> np.ndarray:
        c = self.coverages(x)
        return c * self.payoff_defended + (1.0 - c) * self.payoff_undefended

    def type_minima(self, util: np.ndarray) -> np.ndarray:
        """Worst utility over each adversary type's targets; inf for none."""
        out = np.full(self.num_types, np.inf)
        np.minimum.at(out, self.target_type, util)
        return out


def _check_weight_bounds(game: AraGame) -> None:
    """Weights must keep each target's weighted mass at or below one over
    the marginal polytope.  A constraint holding all of a target's cells
    with a small enough bound certifies this cheaply; otherwise maximize the
    mass by LP.  The marginal polytope contains every mixed strategy, so the
    check is conservative.  A target without positive weights needs neither."""
    c = game.compiled
    count, ncons = len(game.targets), len(game.constraints)
    wmax = np.zeros(count)
    np.maximum.at(wmax, c.tgt_seg, c.tgt_weight)
    size = np.bincount(c.tgt_seg, minlength=count)
    # how many cells of each target each constraint holds
    lens, entry = c.at_cells(c.tgt_cell)
    pairs, held = np.unique(np.repeat(c.tgt_seg, lens) * ncons + c.con_seg[entry],
                            return_counts=True)
    t, con = np.divmod(pairs, ncons)
    certified = np.zeros(count, dtype=bool)
    certified[t[(held == size[t]) & (c.upper[con] * wmax[t] <= 1.0 + 1e-9)]] = True
    ends = np.cumsum(size)
    for t in np.flatnonzero(~certified & (wmax > 0)):
        prog = lpmod.LinearProgram(game.k * game.n)
        mine = slice(ends[t] - size[t], ends[t])
        prog.objective[c.tgt_cell[mine]] = c.tgt_weight[mine]
        add_constraint_rows(prog, game.constraints, lambda p: p[:, 0] * game.n + p[:, 1])
        sol = lpmod.solve_lp(prog)
        if sol.status == "unbounded" or (sol.status == "optimal"
                                         and sol.objective_value > 1.0 + MARGINAL_TOL):
            raise GameError(f"target {game.targets[t].id!r} weights admit coverage above one")


def add_constraint_rows(prog: lpmod.LinearProgram, constraints, var) -> None:
    """LP rows for assignment constraints, with the cells of all of them (an
    (E, 2) array of pairs) held by the variables ``var(cells)``."""
    cells = np.concatenate([np.zeros((0, 2), np.int64), *(con.cells for con in constraints)])
    coeffs = np.concatenate([np.zeros(0), *_coeff_arrays(constraints)])
    seg = np.repeat(np.arange(len(constraints)), [len(con.cells) for con in constraints])
    for con, coeffs in zip(constraints, row_dicts(var(cells), coeffs, seg, len(constraints))):
        if con.is_equality:
            prog.add_row(coeffs, "=", con.lower, label=con.name())
        else:
            prog.add_row(coeffs, "<=", con.upper, label=f"{con.name()} upper")
            if con.lower > 0:
                prog.add_row(coeffs, ">=", con.lower, label=f"{con.name()} lower")


def row_dicts(variables: np.ndarray, values: np.ndarray, seg: np.ndarray,
              count: int) -> list[dict]:
    """Per segment of entries in segment order, its LP row coefficients:
    each entry's variable mapped to its value."""
    ends = np.cumsum(np.bincount(seg, minlength=count)).tolist()
    keys, vals = variables.tolist(), values.tolist()
    return [dict(zip(keys[lo:hi], vals[lo:hi])) for lo, hi in zip([0, *ends], ends)]


@dataclass(frozen=True)
class MarginalStrategy:
    """Real-valued allocation; feasibility is relative to a game and checked
    with ``CompiledGame.violations``."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise GameError("strategy matrix must be 2-d")
        if np.any(arr < -MARGINAL_TOL):
            raise GameError("marginal strategy has negative cells")
        arr[arr < 0] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class PureStrategy:
    """Integral, nonnegative allocation; ``CompiledGame.violations`` checks
    it against a game's constraints.

    It is stored in the narrowest of int8, int16 and int32 that holds its
    largest cell, int8 for every FAMS strategy, and in the dtype it is given
    when none does; a float or bool matrix is rounded into int64 first.
    A caller widens before arithmetic whose result can leave the stored
    dtype's range: ``np.sum`` and mixed-dtype operations widen by
    themselves, but ``+`` between two int8 matrices and Python's ``sum``
    over them do not."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise GameError("strategy matrix must be 2-d")
        if arr.dtype.kind not in "iu":  # not an integer dtype
            rounded = np.rint(arr)
            if np.any(np.abs(arr - rounded) > 0):
                raise GameError("pure strategy has fractional cells")
            arr = rounded.astype(np.int64)
        lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
        if lo < 0:
            raise GameError("pure strategy has negative cells")
        dtype = (np.int8 if hi < 2 ** 7 else np.int16 if hi < 2 ** 15
                 else np.int32 if hi < 2 ** 31 else arr.dtype)
        arr = arr.astype(dtype)  # a copy, also when the dtype stays
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MixedStrategyEstimate:
    """Sampled pure strategies and their cell-wise mean, summed into one
    int64 accumulator: the samples may be stored narrow, and their own sums
    would wrap."""

    samples: tuple[PureStrategy, ...]
    mean: np.ndarray = field(init=False)

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise GameError("estimate needs at least one sample")
        # summed without stacking the samples; the integer sums are exact, so
        # this equals the mean of the stacked samples bit for bit.  The add
        # runs in int64 whatever the samples' dtype (uint64 would otherwise
        # promote to float64)
        total = np.zeros(samples[0].values.shape, dtype=np.int64)
        for s in samples:
            if s.values.shape != total.shape:
                raise GameError(f"estimate samples have shapes {total.shape} and {s.values.shape}")
            np.add(total, s.values, out=total, dtype=np.int64)
        mean = total / len(samples)
        mean.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "mean", mean)


def _values(x) -> np.ndarray:
    if isinstance(x, (MarginalStrategy, PureStrategy)):
        return x.values
    return np.asarray(x)


def game_value(game: AraGame, x) -> float:
    """Expected defender utility when each adversary type best-responds.

    Types with zero probability or no targets contribute nothing.
    """
    m = _values(x)
    if m.shape != (game.k, game.n):
        raise GameError(f"strategy shape {m.shape} does not match {(game.k, game.n)}")
    compiled = game.compiled
    total = 0.0
    for a, worst in zip(game.adversary_types, compiled.type_minima(compiled.utilities(m))):
        if a.probability == 0.0 or not a.targets:
            continue
        total += a.probability * worst
    return float(total)


@dataclass(frozen=True)
class Violation:
    constraint: str
    achieved: float
    lower: float
    upper: float

    def __str__(self):
        return f"{self.constraint}: sum {self.achieved} outside [{self.lower}, {self.upper}]"


@dataclass(frozen=True)
class ImplementabilityResult:
    bi_hierarchical: bool
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    odd_cycle: tuple[int, ...] | None = None

    def witness_labels(self, game: AraGame):
        names = [c.name() for c in game.constraints]
        if self.bi_hierarchical:
            return tuple(tuple(names[i] for i in part) for part in self.partition)
        return tuple(names[i] for i in self.odd_cycle)


def check_implementability(game: AraGame) -> ImplementabilityResult:
    """Decide whether the assignment constraints split into two laminar
    families (all marginals then implementable as mixed strategies).

    Builds the graph whose edges join crossing constraint pairs (they share
    a cell and neither holds all the other's cells, counted by one overlap
    count over the cells) and tests bipartiteness; the two-coloring is the
    witness, an odd crossing cycle the counter-witness.  Each vertex visits
    its neighbours in ascending order.
    """
    c = game.compiled
    m = len(game.constraints)
    size = np.bincount(c.con_seg, minlength=m)
    lens, entry = c.at_cells(c.con_cell)
    pairs, overlap = np.unique(np.repeat(c.con_seg, lens) * m + c.con_seg[entry],
                               return_counts=True)
    a, b = np.divmod(pairs, m)
    crossing = (a != b) & (overlap < size[a]) & (overlap < size[b])
    adj: list[list[int]] = [[] for _ in range(m)]
    for u, v in zip(a[crossing].tolist(), b[crossing].tolist()):
        adj[u].append(v)
    color = [-1] * m
    parent = [-1] * m
    for start in range(m):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return ImplementabilityResult(False, odd_cycle=_odd_cycle(u, v, parent))
    part0 = tuple(i for i in range(m) if color[i] == 0)
    part1 = tuple(i for i in range(m) if color[i] == 1)
    return ImplementabilityResult(True, partition=(part0, part1))


def _odd_cycle(u: int, v: int, parent: list[int]) -> tuple[int, ...]:
    path_u, path_v = [u], [v]
    seen = {u: 0}
    x = u
    while parent[x] >= 0:
        x = parent[x]
        seen[x] = len(path_u)
        path_u.append(x)
    x = v
    while x not in seen:
        x = parent[x]
        path_v.append(x)
    cut = seen[x]
    return tuple(path_u[:cut + 1] + path_v[-2::-1])
