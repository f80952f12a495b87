"""Abstract allocation-game model: types, constraint checks, utilities.

A game allocates k assets (rows) to n objects (columns).  Assignment
constraints bound integer cell-set sums, targets are weighted cell sets
with defended/undefended payoffs, and adversary types partition targets.
All types are immutable after construction and the operations are pure
functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ara import lp as lpmod

CellIndex = tuple[int, int]

MARGINAL_TOL = 1e-7
# a game may have at most this many targets per cell
MAX_TARGETS_FACTOR = 64


class GameError(Exception):
    """Invalid game data or an operation on an unknown target."""


@dataclass(frozen=True)
class AssignmentConstraint:
    """Integer interval bound on a weighted cell-set sum.

    ``coeffs`` holds per-cell positive integer usage multiplicities; cells
    absent from it count once.  The constraint is an equality iff
    lower == upper.
    """

    cells: frozenset[CellIndex]
    lower: int
    upper: int
    label: str = ""
    coeffs: dict[CellIndex, int] | None = None

    def __post_init__(self):
        if not self.cells:
            raise GameError(f"constraint {self.label!r} has no cells")
        if not (0 <= self.lower <= self.upper):
            raise GameError(f"constraint {self.label!r} has bad bounds [{self.lower}, {self.upper}]")
        if int(self.lower) != self.lower or int(self.upper) != self.upper:
            raise GameError(f"constraint {self.label!r} bounds must be integers")
        if self.coeffs:
            if not set(self.coeffs) <= self.cells:
                raise GameError(f"constraint {self.label!r} has coefficients outside its cells")
            if any(int(c) != c or c < 1 for c in self.coeffs.values()):
                raise GameError(f"constraint {self.label!r} coefficients must be positive integers")

    @property
    def is_equality(self) -> bool:
        return self.lower == self.upper

    def sorted_cells(self) -> list[CellIndex]:
        return sorted(self.cells)

    def coeff(self, cell: CellIndex) -> int:
        return self.coeffs.get(cell, 1) if self.coeffs else 1

    def name(self) -> str:
        return self.label or f"constraint over {len(self.cells)} cells"


@dataclass(frozen=True)
class Target:
    id: str
    cells: frozenset[CellIndex]
    weights: dict[CellIndex, float]
    payoff_defended: float
    payoff_undefended: float

    def __post_init__(self):
        if not set(self.weights) <= self.cells:
            raise GameError(f"target {self.id!r} has weights outside its cells")
        if not all(map(math.isfinite, self.weights.values())):
            raise GameError(f"target {self.id!r} has non-finite weights")
        if min(self.weights.values(), default=0.0) < 0:
            raise GameError(f"target {self.id!r} has negative weights")
        if not (math.isfinite(self.payoff_defended) and math.isfinite(self.payoff_undefended)):
            raise GameError(f"target {self.id!r} has non-finite payoffs")
        if self.payoff_defended < self.payoff_undefended:
            raise GameError(f"target {self.id!r} prefers being undefended")


@dataclass(frozen=True)
class AdversaryType:
    id: str
    probability: float
    targets: frozenset[str]

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise GameError(f"adversary type {self.id!r} has probability {self.probability}")


@dataclass(frozen=True)
class AraGame:
    """k x n allocation game.  Games without explicit adversary types get a
    single type attacking every target with probability one."""

    k: int
    n: int
    constraints: tuple[AssignmentConstraint, ...]
    targets: tuple[Target, ...]
    adversary_types: tuple[AdversaryType, ...] = ()
    validate_weights: bool = True

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.k < 1 or self.n < 1:
            raise GameError("matrix dimensions must be positive")
        if len(self.targets) > self.k * self.n * MAX_TARGETS_FACTOR:
            raise GameError(f"{len(self.targets)} targets exceeds the "
                            f"{self.k * self.n * MAX_TARGETS_FACTOR} cap")
        for con in self.constraints:
            self._check_cells(con.cells, f"constraint {con.name()}")
        ids = [t.id for t in self.targets]
        if len(set(ids)) != len(ids):
            raise GameError("duplicate target ids")
        for t in self.targets:
            self._check_cells(t.cells, f"target {t.id!r}")
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
        if self.validate_weights:
            for t in self.targets:
                _check_weight_bound(self, t)

    def _check_cells(self, cells, what: str) -> None:
        for (i, j) in cells:
            if not (0 <= i < self.k and 0 <= j < self.n):
                raise GameError(f"{what} references cell ({i}, {j}) outside {self.k}x{self.n}")

    def target(self, target_id: str) -> Target:
        return self.targets[self.compiled.position(target_id)]

    @cached_property
    def compiled(self) -> "CompiledGame":
        return CompiledGame(self)


class CompiledGame:
    """A game as flat index arrays; cell (i, j) is index i * n + j.

    Constraint entries (cell, coefficient, segment) and target entries
    (cell, weight, segment) run segment by segment in game order, and within
    a segment in the iteration order of the constraint's cells or the
    target's weights.  ``np.bincount`` adds in entry order, so segment sums
    equal the loops over the game objects bit for bit; an empty segment (a
    target with no cells) sums to zero.  Constraint sums are the exception:
    they run cell by cell over a matrix's nonzero cells (``cell_constraints``),
    which is exact for integer strategies and may differ from the game-order
    sum by rounding for real ones.
    """

    def __init__(self, game: AraGame):
        self.shape = (game.k, game.n)
        cons, targets = game.constraints, game.targets
        n = game.n
        self.con_cell = np.fromiter((i * n + j for con in cons for i, j in con.cells), np.int64)
        self.con_coeff = np.fromiter((con.coeff(c) for con in cons for c in con.cells), np.int64)
        self.con_seg = np.repeat(np.arange(len(cons)), [len(con.cells) for con in cons])
        self.lower = np.array([con.lower for con in cons], dtype=np.int64)
        self.upper = np.array([con.upper for con in cons], dtype=np.int64)
        self.names = tuple(con.name() for con in cons)
        self.tgt_cell = np.fromiter((i * n + j for t in targets for i, j in t.weights), np.int64)
        self.tgt_weight = np.fromiter((w for t in targets for w in t.weights.values()), float)
        self.tgt_seg = np.repeat(np.arange(len(targets)), [len(t.weights) for t in targets])
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

    def constraint_sums(self, matrices) -> np.ndarray:
        """Every constraint's sum in each matrix, shape (len(matrices), C),
        added over each matrix's nonzero cells only."""
        ptr, order = self.cell_constraints
        cells, vals = [], []
        for x in matrices:
            x = _values(x)
            if x.shape != self.shape:
                raise GameError(f"strategy shape {x.shape} does not match {self.shape}")
            flat = x.ravel()
            nz = np.flatnonzero(flat)
            cells.append(nz)
            vals.append(flat[nz])
        rows, count = len(cells), len(self.names)
        owner = np.repeat(np.arange(rows) * count, [len(c) for c in cells])
        cells = np.concatenate(cells)
        start = ptr[cells]
        lens = ptr[cells + 1] - start
        # entry positions of all those cells, run by run
        entry = order[np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
        weights = np.repeat(np.concatenate(vals), lens) * self.con_coeff[entry]
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


def _check_weight_bound(game: AraGame, t: Target) -> None:
    """Weights must keep the target's weighted mass at or below one over the
    marginal polytope.  A containing constraint with a small enough bound
    certifies this cheaply; otherwise maximize the mass by LP.  The marginal
    polytope contains every mixed strategy, so the check is conservative."""
    if not t.weights:
        return
    wmax = max(t.weights.values())
    for con in game.constraints:
        if t.cells <= con.cells and con.upper * wmax <= 1.0 + 1e-9:
            return
    prog = lpmod.LinearProgram(game.k * game.n)
    for c, w in t.weights.items():
        prog.objective[c[0] * game.n + c[1]] = w
    unconstrained = set(t.weights) - set().union(*(con.cells for con in game.constraints))
    if any(t.weights.get(c, 0) > 0 for c in unconstrained):
        raise GameError(f"target {t.id!r} puts weight on unconstrained cells")
    add_constraint_rows(prog, game.constraints, lambda c: c[0] * game.n + c[1])
    sol = lpmod.solve_lp(prog)
    if sol.status == "unbounded" or (sol.status == "optimal" and sol.objective_value > 1.0 + MARGINAL_TOL):
        raise GameError(f"target {t.id!r} weights admit coverage above one")


def add_constraint_rows(prog: lpmod.LinearProgram, constraints, var) -> None:
    """LP rows for assignment constraints, with cell c held by variable var(c)."""
    for con in constraints:
        coeffs = {var(c): float(con.coeff(c)) for c in con.cells}
        if con.is_equality:
            prog.add_row(coeffs, "=", con.lower, label=con.name())
        else:
            prog.add_row(coeffs, "<=", con.upper, label=f"{con.name()} upper")
            if con.lower > 0:
                prog.add_row(coeffs, ">=", con.lower, label=f"{con.name()} lower")


@dataclass(frozen=True)
class MarginalStrategy:
    """Real-valued allocation; feasibility is relative to a game and checked
    with constraint_violations."""

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
    """Integral, nonnegative allocation; ``constraint_violations`` checks it
    against a game's constraints."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values)
        if arr.ndim != 2:
            raise GameError("strategy matrix must be 2-d")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if np.any(np.abs(arr - rounded) > 0):
                raise GameError("pure strategy has fractional cells")
            arr = rounded.astype(np.int64)
        if np.any(arr < 0):
            raise GameError("pure strategy has negative cells")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MixedStrategyEstimate:
    """Sampled pure strategies and their cell-wise mean."""

    samples: tuple[PureStrategy, ...]
    mean: np.ndarray = field(init=False)

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise GameError("estimate needs at least one sample")
        # summed without stacking the samples; the integer sums are exact, so
        # this equals the mean of the stacked samples bit for bit
        mean = sum(s.values for s in samples) / len(samples)
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


def constraint_violations(game: AraGame, matrix: np.ndarray, tol: float = 0.0) -> list[Violation]:
    """The constraints one strategy breaks by more than ``tol``; see
    ``CompiledGame.violations`` for several at once."""
    return game.compiled.violations([matrix], tol)[0]


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


def _crossing(a: AssignmentConstraint, b: AssignmentConstraint) -> bool:
    return bool(a.cells & b.cells) and not a.cells <= b.cells and not b.cells <= a.cells


def check_implementability(game: AraGame) -> ImplementabilityResult:
    """Decide whether the assignment constraints split into two laminar
    families (all marginals then implementable as mixed strategies).

    Builds the graph whose edges join crossing constraint pairs and tests
    bipartiteness; the two-coloring is the witness, an odd crossing cycle
    the counter-witness.
    """
    cons = game.constraints
    m = len(cons)
    adj: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if _crossing(cons[i], cons[j]):
                adj[i].append(j)
                adj[j].append(i)
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
