"""Shared toy instances.

``fig1b_fams`` is the two-flight/three-schedule/three-marshal air marshal
toy with overlapping schedules; ``fig1c_tsg`` the two-resource screening
toy whose middle team uses both resources, so both have genuinely crossing
assignment constraints.

``utility``, ``violations_within`` and ``violations`` read one target or one
strategy through the package's compiled game; ``coverage`` and
``constraint_sum`` are independent references, plain loops over one
target's or one constraint's (row, col) pairs.
"""

import numpy as np
import pytest

from ara.core import (
    AdversaryType,
    AraGame,
    AssignmentConstraint,
    GameError,
    PureStrategy,
    Target,
)
from ara.fams import FamsInstance, FlightSpec, Schedule
from ara.tsg import CategorySpec, ResourceSpec, RiskLevel, TeamSpec, TsgInstance


def coverage(game: AraGame, x, target_id: str) -> float:
    """The weighted allocation mass on one target's cells, cell by cell."""
    t = game.target(target_id)
    m = np.asarray(getattr(x, "values", x))
    if m.shape != (game.k, game.n):
        raise GameError(f"strategy shape {m.shape} does not match {(game.k, game.n)}")
    return float(sum(w * m[i, j] for (i, j), w in zip(t.cells.tolist(), t.weights.tolist())))


def utility(game: AraGame, x, target_id: str) -> float:
    """The defender's utility when one target is attacked."""
    return float(game.compiled.utilities(x)[game.compiled.position(target_id)])


def violations_within(game: AraGame, x, tol: float) -> list:
    """The constraints one strategy matrix breaks by more than ``tol``."""
    return game.compiled.violations([x], tol)[0]


def violations(game: AraGame, p) -> list:
    """The constraints a pure strategy breaks; ``PureStrategy`` refuses
    fractional and negative cells with a ``GameError``."""
    return violations_within(game, PureStrategy(getattr(p, "values", p)).values, 0.0)


def constraint_sum(con: AssignmentConstraint, m) -> float:
    """A constraint's weighted cell sum, cell by cell."""
    coeffs = [1] * len(con.cells) if con.coeffs is None else con.coeffs.tolist()
    return float(sum(int(c) * m[i, j] for (i, j), c in zip(con.cells.tolist(), coeffs)))


@pytest.fixture
def fig1b_fams() -> FamsInstance:
    return FamsInstance(
        num_marshals=3,
        schedules=(Schedule("s1", frozenset({"f1"})),
                   Schedule("s2", frozenset({"f1", "f2"})),
                   Schedule("s3", frozenset({"f2"}))),
        flights=(FlightSpec("f1", -1.0, -5.0), FlightSpec("f2", -1.0, -9.0)),
    )


@pytest.fixture
def fig1c_tsg() -> TsgInstance:
    return TsgInstance(
        resources=(ResourceSpec("xray", 7), ResourceSpec("md", 15)),
        teams=(TeamSpec("t_x", ("xray",), 0.9),
               TeamSpec("t_xm", ("md", "xray"), 0.8),
               TeamSpec("t_m", ("md",), 0.5)),
        categories=(CategorySpec("c_r1_f1", "r1", "f1", 2, -1.0, -6.0),
                    CategorySpec("c_r2_f1", "r2", "f1", 3, -1.0, -4.0),
                    CategorySpec("c_r2_f2", "r2", "f2", 15, -1.0, -8.0)),
        risk_levels=(RiskLevel("r1", 0.5), RiskLevel("r2", 0.5)),
    )


def random_toy_fams(rng: np.random.Generator) -> FamsInstance:
    """Random air-marshal toy within the corpus caps: at most 6 flights,
    8 schedules, 3 marshals (at least 2 so approximation-ratio checks are
    not degenerate)."""
    n_fl = int(rng.integers(2, 7))
    n_sc = int(rng.integers(2, 9))
    marshals = int(rng.integers(2, 4))
    flights = tuple(FlightSpec(f"f{i}", -1.0, -float(rng.integers(2, 11)))
                    for i in range(n_fl))
    schedules = []
    for j in range(n_sc):
        size = int(rng.integers(1, min(3, n_fl) + 1))
        picked = rng.choice(n_fl, size=size, replace=False)
        schedules.append(Schedule(f"s{j}", frozenset(f"f{p}" for p in picked)))
    return FamsInstance(marshals, tuple(schedules), flights)



def with_random_forbidden(inst: FamsInstance, rng: np.random.Generator,
                          share: float = 0.3) -> FamsInstance:
    """The same toy with each marshal/schedule pair forbidden with
    probability ``share``."""
    forbidden = frozenset((m, s.id) for m in range(inst.num_marshals)
                          for s in inst.schedules if rng.random() < share)
    return FamsInstance(inst.num_marshals, inst.schedules, inst.flights, forbidden)

def random_toy_tsg(rng: np.random.Generator) -> TsgInstance:
    """Random screening toy within the corpus caps: at most 3 categories and
    3 teams, capacities at most 6."""
    while True:
        n_res = int(rng.integers(1, 3))
        n_teams = int(rng.integers(2, 4))
        n_cats = int(rng.integers(1, 4))
        n_risks = int(rng.integers(1, n_cats + 1))
        teams = []
        for i in range(n_teams):
            size = int(rng.integers(1, n_res + 1))
            members = tuple(f"r{m}" for m in sorted(rng.choice(n_res, size=size, replace=False)))
            teams.append(TeamSpec(f"t{i}", members, float(rng.uniform(0.1, 0.95))))
        probs = rng.random(n_risks)
        probs /= probs.sum()
        risks = tuple(RiskLevel(f"risk{i}", float(p)) for i, p in enumerate(probs))
        categories = []
        for j in range(n_cats):
            ri = j % n_risks
            categories.append(CategorySpec(f"c{j}", f"risk{ri}", f"f{j}",
                                           int(rng.integers(1, 4)), -1.0,
                                           -float(rng.integers(2, 11))))
        total_n = sum(c.passengers for c in categories)
        caps = {}
        ok = True
        for r in range(n_res):
            draw = sum(1 for t in teams for m in t.members if m == f"r{r}")
            cap = int(np.ceil(1.3 * draw * total_n / n_teams)) + 1
            if cap > 6:
                ok = False
                break
            caps[f"r{r}"] = cap
        if not ok:
            continue
        resources = tuple(ResourceSpec(f"r{r}", caps[f"r{r}"]) for r in range(n_res))
        if total_n > sum(c.capacity for c in resources):
            continue
        return TsgInstance(resources, tuple(teams), tuple(categories), risks)


def random_raw_game(rng: np.random.Generator) -> AraGame:
    """Random raw game, unchecked weights: constraints over random cell sets
    with random integer coefficients and bounds, targets with random
    weights, the last target with no cells, and two adversary types."""
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    every = [(i, j) for i in range(k) for j in range(n)]

    def cell_set():
        picked = rng.choice(len(every), size=int(rng.integers(1, len(every) + 1)), replace=False)
        return [every[p] for p in picked]

    constraints = []
    for c in range(int(rng.integers(1, 5))):
        cells = cell_set()
        coeffs = [int(rng.integers(1, 4)) if rng.random() < 0.5 else 1 for _ in cells]
        lower = int(rng.integers(0, 3))
        constraints.append(AssignmentConstraint(cells, lower, lower + int(rng.integers(0, 4)),
                                                label=f"con {c}", coeffs=coeffs))
    targets = []
    for t in range(int(rng.integers(1, 4))):
        cells = cell_set()
        targets.append(Target(f"t{t}", cells, [float(rng.random()) for _ in cells],
                              -1.0, -float(rng.integers(2, 11))))
    targets.append(Target("empty", [], [], -1.0, -3.0))
    ids = [t.id for t in targets]
    types = (AdversaryType("a", 0.25, frozenset(ids[::2])),
             AdversaryType("b", 0.75, frozenset(ids[1::2])))
    return AraGame(k, n, tuple(constraints), tuple(targets), types, validate_weights=False)
