"""Dependent rounding of marginal solutions into valid pure strategies.

The pipeline normalizes a game into partitioned-equality form (every cell
in exactly one equality constraint, all inequalities with lower bound 0),
comb-samples each equality group so the group sum survives rounding, drops
the slack column that the normal form may add (only this module knows of
it), then hands the source game's matrix to domain fixers that repair
inequalities by decreasing cells and equalities by increasing them; the
repaired matrix is the sample.

RNG draw order.  Each attempt at a sample takes one ``rng.random(G)``: a
uniform for each of the G equality groups with fractional mass, in
partition order (``_CombSampler``).  The domain fixer's draws follow; a
failed equality repair starts a new attempt, up to ``RETRY_CAP`` retries
per sample.  So the seed fixes every sample and the value, which
``TestSeededOutputs`` pins for a TSG game and FAMS games of two sizes.

Validity check.  ``estimate_mixed`` checks its samples against the source
game's constraints in one pass after all m are drawn, ``CHECK_BLOCK``
samples per call of ``CompiledGame.violations``, not one by one as they are
drawn; it draws nothing, so the order above is the whole draw order.

Stored samples.  Comb rounding and the fixers work on int64 matrices, and
each repaired sample is stored narrow, as ``PureStrategy`` stores itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ara.core import (
    AraGame,
    AssignmentConstraint,
    GameError,
    MixedStrategyEstimate,
    PureStrategy,
    game_value,
)
from ara.marginal import MarginalSolution

COMB_SUM_TOL = 1e-6
# failed equality repairs tolerated per sample before ``SamplingFailure``
RETRY_CAP = 100
# samples per block of the validity check: the check's temporaries grow with
# the block's nonzero cells, and a whole estimate's would raise the peak memory
CHECK_BLOCK = 32
# largest total size of one estimate's samples
MAX_SAMPLE_BYTES = 1 << 30


class Pe0StructureError(GameError):
    """Equalities cannot be arranged into a partition of the matrix."""


class EqualityFixFailed(Exception):
    """A domain fixer could not restore an equality; resample instead."""


class SamplingFailure(Exception):
    """Equality repair failed on every attempt at one sample."""


class DomainFixer(Protocol):
    def fix_inequalities(self, x: np.ndarray, pe0: "Pe0Form", rng: np.random.Generator) -> np.ndarray: ...

    def fix_equalities(self, x: np.ndarray, pe0: "Pe0Form", rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class Pe0Form:
    """A game whose equality constraints partition the allocation matrix.

    ``game`` may carry one extra slack column relative to ``source_game``;
    ``source_cols``, read from ``source_game``, is the width of every matrix
    a domain fixer sees.
    """

    game: AraGame
    equality_partition: tuple[AssignmentConstraint, ...]
    source_game: AraGame

    def __post_init__(self):
        k, n = self.game.k, self.game.n
        part = self.equality_partition
        for con in part:
            if not con.is_equality:
                raise Pe0StructureError(f"{con.name()} is not an equality")
        cells = np.concatenate([np.zeros((0, 2), np.int64), *(c.cells for c in part)])
        count = np.bincount(cells[:, 0] * n + cells[:, 1], minlength=k * n)
        if np.any(count != 1):
            cell = int(np.argmax(count != 1))
            problem = "overlap at" if count[cell] else "do not cover"
            raise Pe0StructureError(f"equalities {problem} cell {divmod(cell, n)}")

    @property
    def source_cols(self) -> int:
        return self.source_game.n


def to_pe0(game: AraGame) -> Pe0Form:
    """Normalize a game into partitioned-equality form.

    Games whose positive equalities already partition the matrix pass
    through unchanged.  Games with a budget in every row (a unit-coefficient
    constraint over exactly the row's cells, ``CompiledGame.row_budget``)
    get a shared dummy column holding one slack cell per asset, turning each
    budget into an equality; a slack cell of one marks the asset unallocated.
    The other constraints, zero-fixing equalities among them, pass through
    unchanged as the inequalities.
    """
    eqs = [c for c in game.constraints if c.is_equality and c.lower > 0]
    ineqs = [c for c in game.constraints if not (c.is_equality and c.lower > 0)]
    for con in ineqs:
        if con.lower != 0 and con.lower != con.upper:
            raise Pe0StructureError(f"{con.name()} has lower bound {con.lower}; "
                                    "only 0 or equality bounds are supported")

    if eqs:  # Pe0Form checks that they partition the matrix
        return Pe0Form(game, tuple(eqs), game)

    cons, budget = game.constraints, game.compiled.row_budget.tolist()
    if -1 in budget:
        raise Pe0StructureError(f"row {budget.index(-1)} has no full-row budget constraint with "
                                "unit coefficients to turn into a partition equality")
    chosen = set(budget)
    others = tuple(con for i, con in enumerate(cons) if i not in chosen)

    n_ext = game.n + 1
    rows = np.indices((game.k, n_ext)).transpose(1, 2, 0)  # rows[i]: row i's cells
    equalities = tuple(AssignmentConstraint(rows[i], cons[b].upper, cons[b].upper,
                                            label=f"{cons[b].name()} (with slack)")
                       for i, b in enumerate(budget))
    ext = AraGame(game.k, n_ext, equalities + others, game.targets,
                  game.adversary_types, validate_weights=False)
    return Pe0Form(ext, equalities, game)


class _CombSampler:
    """Comb rounding of one fixed marginal over a whole equality partition.

    Within a group, the fractional parts are packed in ascending cell order
    into unit buckets; one uniform draw marks the same offset in every
    bucket, and the cell whose fraction covers a mark is rounded up.  Each
    cell keeps its marginal value in expectation and the group sum is kept
    exactly.

    Floors, cumulative fractions and bucket counts are computed once, for
    all groups together; fractional parts within 1e-7 of an integer count
    as integral.  The cumulative fractions of equal-sized groups come from
    one ``np.cumsum`` along the rows of a 2-D array, the same floats as a
    cumsum group by group, and a group's fractional mass is its last one.
    A sample draws one uniform per group with fractional mass, in partition
    order, and finds every mark's cell with one search over keys draw + 1j *
    cumulative fraction (both parts exact): NumPy orders complex numbers by
    real, then imaginary part, so the search stays within each group and
    compares the same floats as a search group by group.
    """

    def __init__(self, pe0: Pe0Form, x: np.ndarray):
        self.shape = (pe0.game.k, pe0.game.n)
        if x.shape != self.shape:
            raise GameError(f"marginal shape {x.shape} is not the PE0 game's {self.shape}; "
                            "solve the marginal LP of pe0.game")
        part = pe0.equality_partition
        sizes = np.array([len(con.cells) for con in part])
        group = np.repeat(np.arange(len(part)), sizes)
        cells = np.concatenate([con.cells for con in part])
        flat = cells[:, 0] * self.shape[1] + cells[:, 1]
        flat = flat[np.lexsort((flat, group))]  # ascending within each group
        vals = x.ravel()[flat]
        floors = np.floor(vals)
        frac = vals - floors
        snap = frac > 1.0 - 1e-7
        floors[snap] += 1.0
        frac[snap] = 0.0
        frac[frac < 1e-7] = 0.0
        self.base = np.zeros(x.size, dtype=np.int64)
        self.base[flat] = floors.astype(np.int64)
        # one cumsum per group size: the cells of equal-sized groups, in
        # group order, are the rows of one 2-D array
        size_of = sizes[group]
        by_size = np.argsort(size_of, kind="stable")
        cum = np.empty_like(frac)
        for at in np.split(by_size, np.flatnonzero(np.diff(size_of[by_size])) + 1):
            cum[at] = np.cumsum(frac[at].reshape(-1, size_of[at[0]]), axis=1).ravel()
        total = cum[np.cumsum(sizes) - 1]
        buckets = np.rint(total)
        bad = np.abs(total - buckets) > COMB_SUM_TOL
        if bad.any():
            raise GameError(f"fractional mass {total[bad][0]} is not integral "
                            f"within {COMB_SUM_TOL}")
        drawing = buckets > 0
        self.draws = int(drawing.sum())
        if self.draws:
            keep = drawing[group]
            buckets = buckets[drawing].astype(np.int64)
            self.keys = (np.cumsum(drawing) - 1)[group[keep]] + 1j * cum[keep]
            self.key_cell = flat[keep]
            self.mark_draw = np.repeat(np.arange(self.draws), buckets)
            self.mark_t = (np.arange(buckets.sum())
                           - np.repeat(np.cumsum(buckets) - buckets, buckets)).astype(float)
            self.mark_cap = (total[drawing] - 1e-12)[self.mark_draw]
            self.mark_last = (np.cumsum(sizes[drawing]) - 1)[self.mark_draw]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        out = self.base.copy()
        if self.draws:
            z = rng.random(self.draws)
            marks = np.minimum(self.mark_t + z[self.mark_draw], self.mark_cap)
            hits = np.searchsorted(self.keys, self.mark_draw + 1j * marks, side="right")
            np.add.at(out, self.key_cell[np.minimum(hits, self.mark_last)], 1)
        return out.reshape(self.shape)


def _sample_with_stats(sampler: _CombSampler, pe0: Pe0Form, fixer: DomainFixer,
                       rng: np.random.Generator) -> tuple[np.ndarray, int]:
    failures = 0
    for _ in range(RETRY_CAP + 1):
        x = np.ascontiguousarray(sampler.sample(rng)[:, :pe0.source_cols])
        fixed = fixer.fix_inequalities(x, pe0, rng)
        if (fixed > x).any():
            raise GameError("inequality fixer increased a cell")
        try:
            done = fixer.fix_equalities(fixed, pe0, rng)
        except EqualityFixFailed:
            failures += 1
            continue
        if (done < fixed).any():
            raise GameError("equality fixer decreased a cell")
        return done, failures
    raise SamplingFailure(f"equality repair failed {failures} times; "
                          f"retry cap {RETRY_CAP} exhausted")


@dataclass(frozen=True)
class EstimateResult:
    estimate: MixedStrategyEstimate
    value: float
    sample_failures: int


def estimate_mixed(ms: MarginalSolution, pe0: Pe0Form, fixer: DomainFixer,
                   rng: np.random.Generator, m: int) -> EstimateResult:
    """Average m valid pure strategies of the source game, drawn from the
    marginal solution ``ms`` of ``pe0.game``, and evaluate the source game
    on the averaged matrix.  A sample whose equality repair fails is drawn
    again with fresh randomness.  The m samples are checked against the
    source game's constraints after the last is drawn; the first invalid
    one raises ``GameError``, and so does, before the first draw, an m
    whose samples would keep more than ``MAX_SAMPLE_BYTES`` (one byte per
    cell, as int8, plus each sample's object overhead)."""
    if m < 1:
        raise GameError("need at least one sample")
    k, n = pe0.source_game.k, pe0.source_game.n
    probe = PureStrategy(np.zeros((0, 0), dtype=np.int8))  # a sample's overhead, no cells
    if m * (k * n + sys.getsizeof(probe) + sys.getsizeof(probe.values)) > MAX_SAMPLE_BYTES:
        raise GameError(f"{m} samples of {k} x {n} cells would pass the "
                        f"{MAX_SAMPLE_BYTES / 2**30:g} GiB sample limit")
    sampler = _CombSampler(pe0, ms.x_m.values)
    samples = []
    failures = 0
    for _ in range(m):
        matrix, f = _sample_with_stats(sampler, pe0, fixer, rng)
        samples.append(PureStrategy(matrix))
        failures += f
    compiled = pe0.source_game.compiled
    for lo in range(0, m, CHECK_BLOCK):
        for bad in compiled.violations(samples[lo:lo + CHECK_BLOCK]):
            if bad:
                raise GameError("fixers produced an invalid strategy: " + "; ".join(map(str, bad)))
    est = MixedStrategyEstimate(tuple(samples))
    return EstimateResult(est, game_value(pe0.source_game, est.mean), failures)
