"""Screening domain: resource teams on rows, passenger categories on columns.

Each category is a (risk level, flight) pair that must be fully screened,
each resource caps the total usage by the teams containing it, and the
adversary's risk level picks which categories it can attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ara.core import AdversaryType, AraGame, AssignmentConstraint, GameError, Target, check_ids
from ara.sampling import EqualityFixFailed, Pe0Form


@dataclass(frozen=True)
class ResourceSpec:
    id: str
    capacity: int

    def __post_init__(self):
        check_ids("resource", self.id)
        # finite before ``int()``, which raises OverflowError on an infinity
        if (isinstance(self.capacity, bool) or not abs(self.capacity) < math.inf
                or self.capacity < 0 or int(self.capacity) != self.capacity):
            raise GameError(f"resource {self.id!r} capacity must be a nonnegative integer")
        if self.capacity >= 2 ** 63:  # ``TsgFixer`` holds capacities as int64
            raise GameError(f"resource {self.id!r} capacity {self.capacity} is past the int64 range")


@dataclass(frozen=True)
class TeamSpec:
    id: str
    members: tuple[str, ...]  # multiset: repeats consume capacity repeatedly
    effectiveness: float

    def __post_init__(self):
        check_ids("team", self.id)
        check_ids(f"team {self.id!r} member", *self.members)
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if not self.members:
            raise GameError(f"team {self.id!r} has no member resources")
        if not 0.0 <= self.effectiveness < 1.0:
            raise GameError(f"team {self.id!r} effectiveness {self.effectiveness} outside [0, 1)")


@dataclass(frozen=True)
class CategorySpec:
    id: str
    risk: str
    flight: str
    passengers: int
    u_def: float
    u_undef: float

    def __post_init__(self):
        check_ids("category", self.id)
        if isinstance(self.passengers, bool):
            raise GameError(f"category {self.id!r} passenger count {self.passengers!r} "
                            "is not an integer")
        if self.passengers < 1:
            raise GameError(f"category {self.id!r} has {self.passengers} passengers")
        if self.u_def < self.u_undef:
            raise GameError(f"category {self.id!r} prefers being undefended")


@dataclass(frozen=True)
class RiskLevel:
    id: str
    probability: float

    def __post_init__(self):
        check_ids("risk level", self.id)


@dataclass(frozen=True)
class TsgInstance:
    resources: tuple[ResourceSpec, ...]
    teams: tuple[TeamSpec, ...]
    categories: tuple[CategorySpec, ...]
    risk_levels: tuple[RiskLevel, ...]

    def __post_init__(self):
        for name in ("resources", "teams", "categories", "risk_levels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for group in (self.resources, self.teams, self.categories, self.risk_levels):
            ids = [g.id for g in group]
            if len(set(ids)) != len(ids):
                raise GameError("duplicate ids in instance")
        rids = {r.id for r in self.resources}
        for t in self.teams:
            unknown = set(t.members) - rids
            if unknown:
                raise GameError(f"team {t.id!r} uses unknown resource {sorted(unknown)[0]!r}")
        risk_ids = {r.id for r in self.risk_levels}
        for c in self.categories:
            if c.risk not in risk_ids:
                raise GameError(f"category {c.id!r} has unknown risk level {c.risk!r}")
        total_p = sum(r.probability for r in self.risk_levels)
        if abs(total_p - 1.0) > 1e-9:
            raise GameError(f"risk probabilities sum to {total_p}")
        # necessary feasibility condition: each screened passenger draws on
        # at least one unit of some resource capacity
        total_n = sum(c.passengers for c in self.categories)
        total_cap = sum(r.capacity for r in self.resources)
        if total_n > total_cap:
            raise GameError(f"{total_n} passengers exceed the total capacity {total_cap}")


def encode_tsg(inst: TsgInstance) -> AraGame:
    """Rows are teams, columns categories.  Every column must sum to its
    passenger count, every resource caps the weighted usage of the teams
    containing it (multiset members count once per occurrence), and each
    category is a target with weights effectiveness/passengers whose risk
    level names the adversary type."""
    k, n = len(inst.teams), len(inst.categories)
    grid = np.indices((k, n)).transpose(1, 2, 0)  # grid[i, j] is the pair (i, j)
    constraints = []
    for r in inst.resources:
        usage = np.array([t.members.count(r.id) for t in inst.teams])
        teams = np.flatnonzero(usage)
        if not len(teams):
            continue
        coeffs = np.repeat(usage[teams], n) if np.any(usage > 1) else None
        constraints.append(AssignmentConstraint(grid[teams].reshape(-1, 2), 0, r.capacity,
                                                label=f"capacity {r.id}", coeffs=coeffs))
    passengers = np.array([c.passengers for c in inst.categories])
    weights = np.array([t.effectiveness for t in inst.teams]) / passengers[:, None]
    targets = []
    for j, c in enumerate(inst.categories):
        constraints.append(AssignmentConstraint(grid[:, j], c.passengers, c.passengers,
                                                label=f"category {c.id}"))
        targets.append(Target(c.id, grid[:, j], weights[j], c.u_def, c.u_undef))
    types = []
    for r in inst.risk_levels:
        mine = frozenset(c.id for c in inst.categories if c.risk == r.id)
        types.append(AdversaryType(r.id, r.probability, mine))
    return AraGame(k, n, tuple(constraints), tuple(targets), tuple(types))


class TsgFixer:
    """Capacity repair lowers allocation one unit at a time, most violated
    resource first and highest-passenger category within it; equality repair
    refills short categories fewest-passengers-first using the feasible team
    whose member resources have the least remaining slack.

    Built once from the instance: ``usage[i, r]``, how often team i holds
    resource r; the capacities; every cell in repair order (descending
    passengers, category id, team id); and the refill order (ascending
    passengers, category id), of which equality repair visits only the
    short categories and skips the full ones.  A matrix x uses
    ``usage.T @ x.sum(axis=1)`` of the capacities.
    """

    def __init__(self, inst: TsgInstance):
        self.inst = inst
        cats, teams = inst.categories, inst.teams
        self.passengers = np.array([c.passengers for c in cats], dtype=np.int64)
        self.usage = np.array([[t.members.count(r.id) for r in inst.resources] for t in teams],
                              dtype=np.int64).reshape(len(teams), len(inst.resources))
        self.capacity = np.array([r.capacity for r in inst.resources], dtype=np.int64)
        rows, cols = np.indices((len(teams), len(cats))).reshape(2, -1)
        team_rank, cat_rank = (np.unique([s.id for s in specs], return_inverse=True)[1]
                               for specs in (teams, cats))  # ids are distinct
        order = np.lexsort((team_rank[rows], cat_rank[cols], -self.passengers[cols]))
        self.cell_rows, self.cell_cols = rows[order], cols[order]
        refill = sorted(range(len(cats)), key=lambda j: (cats[j].passengers, cats[j].id))
        self.refill = np.array(refill, dtype=np.int64)

    def fix_inequalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        x = x.copy()
        rows, cols = self.cell_rows, self.cell_cols
        over = self.usage.T @ x.sum(axis=1) - self.capacity
        while np.any(over > 0):
            r = int(np.argmax(over))  # first of the worst
            hit = int(np.argmax((x[rows, cols] > 0) & (self.usage[rows, r] > 0)))
            x[rows[hit], cols[hit]] -= 1
            # the decremented team may draw on several resources
            over -= self.usage[rows[hit]]
        return x

    def fix_equalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        x = x.copy()
        # refilling category j changes column j only
        short = self.passengers - x.sum(axis=0)
        todo = self.refill[short[self.refill] > 0]
        if not todo.size:
            return x
        unused = self.usage == 0
        slack = self.capacity - self.usage.T @ x.sum(axis=1)
        for j in todo.tolist():
            for need in range(int(short[j]), 0, -1):
                fits = np.all(unused | (slack >= self.usage), axis=1)
                if not fits.any():
                    raise EqualityFixFailed(f"category {self.inst.categories[j].id} is short "
                                            f"{need} with no team slack left")
                # the first fitting team with the least slack on its resources
                bottleneck = np.where(unused, np.inf, slack).min(axis=1)
                i = int(np.argmin(np.where(fits, bottleneck, np.inf)))
                x[i, j] += 1
                slack -= self.usage[i]
        return x


@dataclass(frozen=True)
class DetectionRatio:
    per_category: dict[str, float]
    min_ratio: float


def tsg_detection_ratio(x_before, x_after, game: AraGame) -> DetectionRatio:
    """Per-category ratio of detection probability after an alteration to
    before it; categories with no prior coverage count as unchanged.  The
    minimum certifies the constant in the per-run approximation bound.

    ``x_after`` is one matrix or a stack of matrices (one per sample); for
    a stack, each category keeps its smallest ratio over the stack."""
    compiled = game.compiled
    before = compiled.coverages(x_before)
    after = compiled.coverages(x_after).reshape(-1, len(before))
    unchanged = before < 1e-12
    ratio = np.where(unchanged, 1.0, after / np.where(unchanged, 1.0, before)).min(axis=0)
    per_category = {t.id: float(r) for t, r in zip(game.targets, ratio)}
    return DetectionRatio(per_category, float(ratio.min()) if len(ratio) else 1.0)
