import numpy as np
import pytest

from ara import exact, marginal
from ara.core import AraGame, AssignmentConstraint, Target
from ara.exact import enumerate_pure, exact_maximin
from ara.fams import FamsFixer, FamsInstance, encode_fams
from ara.generators import GenConfig, gen_fams
from ara.marginal import GameInfeasibleError, solve_marginal
from ara.sampling import estimate_mixed, to_pe0
from ara.tsg import (
    CategorySpec,
    ResourceSpec,
    RiskLevel,
    TeamSpec,
    TsgFixer,
    TsgInstance,
    encode_tsg,
)
from conftest import random_raw_game, random_toy_fams, random_toy_tsg, violations_within


def test_single_saturating_target():
    con = AssignmentConstraint([(0, 0)], 0, 1, label="cell")
    t = Target("t", [(0, 0)], [1.0], -1.0, -5.0)
    game = AraGame(1, 1, (con,), (t,))
    ms = solve_marginal(game)
    assert ms.upper_bound == pytest.approx(-1.0)
    assert game.compiled.type_minima(game.compiled.utilities(ms.x_m.values)) == \
        pytest.approx([-1.0])


def test_fig1c_dominates_exact(fig1c_tsg):
    game = encode_tsg(fig1c_tsg)
    ms = solve_marginal(game)
    exact = exact_maximin(game, enumerate_pure(game))
    assert ms.upper_bound >= exact.value - 1e-6


def test_fig1b_dominates_exact(fig1b_fams):
    game = encode_fams(fig1b_fams)
    ms = solve_marginal(game)
    exact = exact_maximin(game, enumerate_pure(game))
    assert ms.upper_bound >= exact.value - 1e-6


def test_marginal_satisfies_constraints(fig1b_fams):
    game = encode_fams(fig1b_fams)
    ms = solve_marginal(game)
    assert violations_within(game, ms.x_m.values, 1e-7) == []
    assert np.all(ms.x_m.values >= 0)


def test_upper_bound_is_weighted_type_values(fig1c_tsg):
    game = encode_tsg(fig1c_tsg)
    ms = solve_marginal(game)
    worst = game.compiled.type_minima(game.compiled.utilities(ms.x_m.values))
    recomputed = sum(a.probability * w for a, w in zip(game.adversary_types, worst))
    assert ms.upper_bound == pytest.approx(recomputed, abs=1e-9)


def test_payoff_scaling_scales_bound(fig1b_fams):
    lam = 3.5
    game = encode_fams(fig1b_fams)
    scaled_flights = tuple(type(f)(f.id, f.u_def * lam, f.u_undef * lam)
                           for f in fig1b_fams.flights)
    scaled = encode_fams(type(fig1b_fams)(fig1b_fams.num_marshals, fig1b_fams.schedules,
                                          scaled_flights, fig1b_fams.forbidden))
    a, b = solve_marginal(game), solve_marginal(scaled)
    assert b.upper_bound == pytest.approx(lam * a.upper_bound, rel=1e-9)
    assert violations_within(game, b.x_m.values, 1e-7) == []


def test_infeasible_reports_constraints():
    # total capacity looks sufficient, but the only team that can screen
    # draws on the tightly capped resource
    inst = TsgInstance(
        resources=(ResourceSpec("x", 1), ResourceSpec("y", 10)),
        teams=(TeamSpec("t0", ("x",), 0.5),),
        categories=(CategorySpec("c0", "r", "f", 2, -1.0, -2.0),),
        risk_levels=(RiskLevel("r", 1.0),),
    )
    game = encode_tsg(inst)
    with pytest.raises(GameInfeasibleError) as err:
        solve_marginal(game)
    assert err.value.rows


@pytest.mark.parametrize("seed", range(12))
def test_dominance_on_random_toys(seed, monkeypatch):
    """rand value <= exact value <= marginal bound: the sampled mix is a
    mixed strategy the defender can play."""
    monkeypatch.setattr(exact, "ENUM_CAP", 200_000)
    rng = np.random.default_rng(1000 + seed)
    inst = random_toy_fams(rng) if seed % 2 else random_toy_tsg(rng)
    game = encode_fams(inst) if seed % 2 else encode_tsg(inst)
    ms = solve_marginal(game)
    strategies = enumerate_pure(game)
    exact_value = exact_maximin(game, strategies).value
    assert ms.upper_bound >= exact_value - 1e-6
    pe0 = to_pe0(game)
    fixer = FamsFixer(inst) if seed % 2 else TsgFixer(inst)
    rand = estimate_mixed(solve_marginal(pe0.game), pe0, fixer, np.random.default_rng(seed), m=200)
    assert rand.value <= exact_value + 1e-9


@pytest.fixture
def lp_solutions(monkeypatch):
    """(program, solution) of every marginal LP solved during the test."""
    seen = []
    real = marginal.solve_lp

    def spy(prog):
        sol = real(prog)
        seen.append((prog, sol))
        return sol

    monkeypatch.setattr(marginal, "solve_lp", spy)
    return seen


def _small_fams(seed: int) -> FamsInstance:
    return gen_fams(GenConfig(seed=seed, family="fams", flights=8, schedules=12,
                              targets_per_schedule=2, resources=3))


def _with_redundant_cell_bound(game: AraGame) -> AraGame:
    """The same polytope, but row 0 gets a second single-row constraint, so
    its rows no longer count as interchangeable."""
    extra = AssignmentConstraint([(0, 0)], 0, game.constraints[0].upper,
                                 label="redundant")
    return AraGame(game.k, game.n, game.constraints + (extra,), game.targets,
                   game.adversary_types, validate_weights=False)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("form", ["encoded", "pe0"])
def test_aggregated_bound_equals_full_lp(seed, form, lp_solutions):
    game = encode_fams(_small_fams(seed))
    if form == "pe0":
        game = to_pe0(game).game
    aggregated = solve_marginal(game)
    full = solve_marginal(_with_redundant_cell_bound(game))
    (agg_prog, _), (full_prog, _) = lp_solutions
    assert agg_prog.num_vars == game.n + 1
    assert full_prog.num_vars == game.k * game.n + 1
    assert aggregated.upper_bound == pytest.approx(full.upper_bound, rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_staircase_marginal_is_feasible_and_keeps_column_sums(seed, lp_solutions):
    game = to_pe0(encode_fams(_small_fams(seed))).game
    x = solve_marginal(game).x_m.values
    (prog, sol), = lp_solutions
    y = np.maximum(sol.values[:game.n], 0.0)
    assert violations_within(game, x, 1e-9) == []
    np.testing.assert_allclose(x.sum(axis=0), y, rtol=0, atol=1e-12)
    # rows fill in column order, so a column of mass at most one (the row
    # budget) touches at most two rows
    for j in np.nonzero(y <= 1.0)[0]:
        assert np.count_nonzero(x[:, j] > 1e-12) <= 2


# Bounds of the k x n LP, computed before games with interchangeable rows
# were solved over columns.
FORBIDDEN_FAMS_BOUNDS = [-6.000000000000001, -2.0000000000000013,
                         -1.6315789473684217, -1.6956521739130448]
TSG_TOY_BOUNDS = [-2.7495339779592802, -1.0821738170299389, -2.104213059946713,
                  -1.4801236903056194, -2.729900575703633, -1.9612821138882677]


@pytest.mark.parametrize("seed", range(4))
def test_forbidden_pair_keeps_full_lp(seed, lp_solutions):
    inst = _small_fams(seed)
    inst = FamsInstance(inst.num_marshals, inst.schedules, inst.flights,
                        frozenset({(1, inst.schedules[0].id)}))
    game = encode_fams(inst)
    ms = solve_marginal(game)
    (prog, _), = lp_solutions
    assert prog.num_vars == game.k * game.n + 1
    assert ms.upper_bound == pytest.approx(FORBIDDEN_FAMS_BOUNDS[seed], rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_tsg_keeps_full_lp(seed, lp_solutions):
    game = encode_tsg(random_toy_tsg(np.random.default_rng(2000 + seed)))
    for g in (game, to_pe0(game).game):
        ms = solve_marginal(g)
        prog, _ = lp_solutions[-1]
        assert prog.num_vars == g.k * g.n + len(g.adversary_types)
        assert ms.upper_bound == pytest.approx(TSG_TOY_BOUNDS[seed], rel=1e-12)


def test_infeasible_symmetric_game_names_source_constraints(lp_solutions):
    # three rows that must each place one unit, but two columns of capacity one
    k, n = 3, 2
    budgets = tuple(AssignmentConstraint([(i, j) for j in range(n)], 1, 1,
                                         label=f"row {i}") for i in range(k))
    columns = tuple(AssignmentConstraint([(i, j) for i in range(k)], 0, 1,
                                         label=f"column {j}") for j in range(n))
    targets = tuple(Target(f"t{j}", [(i, j) for i in range(k)], [1.0] * k, -1.0, -3.0)
                    for j in range(n))
    game = AraGame(k, n, budgets + columns, targets)
    with pytest.raises(GameInfeasibleError) as err:
        solve_marginal(game)
    (prog, _), = lp_solutions
    assert prog.num_vars == n + 1
    names = [c.name() for c in game.constraints]
    assert err.value.rows
    assert all(any(name in row for name in names) for row in err.value.rows)


def _min_pos(cells) -> int:
    """The position of the smallest (row, col) pair in ``cells``."""
    return int(np.lexsort(cells.T[::-1])[0])


def _break_weight(game):
    t = game.targets[0]
    weights = t.weights.copy()
    weights[_min_pos(t.cells)] = 0.5
    targets = (Target(t.id, t.cells, weights, t.payoff_defended, t.payoff_undefended),)
    return AraGame(game.k, game.n, game.constraints, targets + game.targets[1:])


def _break_coeff(game):
    cons = list(game.constraints)
    ci = next(i for i, c in enumerate(cons) if c.label.startswith("flight"))
    con = cons[ci]
    coeffs = np.ones(len(con.cells))
    coeffs[_min_pos(con.cells)] = 2
    cons[ci] = AssignmentConstraint(con.cells, con.lower, 2, con.label, coeffs)
    return AraGame(game.k, game.n, tuple(cons), game.targets, validate_weights=False)


def _break_budget_bounds(game):
    # every budget in [1, 2]; the flights are widened so that stays feasible
    cons = [AssignmentConstraint(c.cells, 1, 2, c.label) if c.label.startswith("marshal")
            else AssignmentConstraint(c.cells, 0, 6, c.label) for c in game.constraints]
    return AraGame(game.k, game.n, tuple(cons), game.targets, validate_weights=False)


def _break_budget_equal(game):
    cons = list(game.constraints)
    cons[0] = AssignmentConstraint(cons[0].cells, 0, 2, cons[0].label)
    return AraGame(game.k, game.n, tuple(cons), game.targets, validate_weights=False)


@pytest.mark.parametrize("mutate", [_break_weight, _break_coeff, _break_budget_bounds,
                                    _break_budget_equal])
def test_rows_that_differ_keep_full_lp(mutate, fig1b_fams, lp_solutions):
    game = encode_fams(fig1b_fams)
    solve_marginal(game)
    changed = mutate(game)
    solve_marginal(changed)
    assert [prog.num_vars for prog, _ in lp_solutions] == [game.n + 1, game.k * game.n + 1]


def _over_columns_loop(game: AraGame):
    """Reference for ``marginal._over_columns``: the same decisions made by
    per-cell loops over the game's constraints and targets."""
    k, n = game.k, game.n
    budgets: dict[int, AssignmentConstraint] = {}
    others = []
    for con in game.constraints:
        rows = {i for i, _ in con.cells.tolist()}
        if len(rows) == 1:
            i = rows.pop()
            if i in budgets:
                return None
            budgets[i] = con
        elif _same_in_every_row_loop(k, _cell_coeffs(con)):
            others.append(con)
        else:
            return None
    if len(budgets) != k:
        return None
    first, last = budgets[0], budgets[k - 1]
    if first.lower != 0 and not first.is_equality:
        return None
    for con in budgets.values():
        if ((con.lower, con.upper) != (first.lower, first.upper) or len(con.cells) != n
                or any(c != 1 for _, c in _cell_coeffs(con))):
            return None
    if not all(_same_in_every_row_loop(k, zip(t.cells.tolist(), t.weights.tolist()))
               for t in game.targets):
        return None
    summed = AssignmentConstraint([(i, j) for i in range(k) for j in range(n)],
                                  k * first.lower, k * first.upper,
                                  label=f"{first.name()} .. {last.name()} summed")
    return (summed, *others)


def _cell_coeffs(con) -> list:
    """A constraint's (cell, coefficient) pairs."""
    coeffs = [1] * len(con.cells) if con.coeffs is None else con.coeffs.tolist()
    return list(zip(map(tuple, con.cells.tolist()), coeffs))


def _described(found):
    """An ``_over_columns`` result in comparable form: each constraint's
    sorted (cell, coefficient) pairs, bounds and label."""
    if found is None:
        return None
    return [(sorted(_cell_coeffs(c)), c.lower, c.upper, c.label) for c in found]


def _same_in_every_row_loop(k, entries) -> bool:
    per_col: dict[int, tuple[float, int]] = {}
    for (_, j), v in entries:
        seen, count = per_col.get(j, (v, 0))
        if seen != v:
            return False
        per_col[j] = (v, count + 1)
    return all(count == k for _, count in per_col.values())


def _random_symmetric_game(rng) -> AraGame:
    """A raw game with interchangeable rows (row budgets, column-uniform
    constraints and targets), then with probability 2/3 one random change
    that may break the symmetry."""
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    upper = int(rng.integers(1, 3))
    lower = upper if rng.random() < 0.5 else 0
    cons = [AssignmentConstraint([(i, j) for j in range(n)], lower, upper,
                                 label=f"row {i}") for i in range(k)]
    for c in range(int(rng.integers(0, 3))):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        per_col = {int(j): int(rng.integers(1, 3)) for j in cols}
        coeffs = {(i, j): c for j, c in per_col.items() for i in range(k)}
        cons.append(AssignmentConstraint(list(coeffs), 0, k * upper * 2,
                                         label=f"con {c}", coeffs=list(coeffs.values())))
    targets = []
    for t in range(int(rng.integers(1, 4))):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        per_col = {int(j): float(rng.integers(1, 3)) / 4 for j in cols}
        weights = {(i, j): w for j, w in per_col.items() for i in range(k)}
        targets.append(Target(f"t{t}", list(weights), list(weights.values()), -1.0, -5.0))
    change = int(rng.integers(0, 12))  # 1-8 change the game
    if change == 1:  # another budget's bounds
        i = int(rng.integers(k))
        cons[i] = AssignmentConstraint(cons[i].cells, 0, upper + 1, cons[i].label)
    elif change == 2:  # a budget that misses a cell
        cells = sorted(cons[0].cells.tolist())
        if len(cells) > 1:
            cons[0] = AssignmentConstraint(cells[1:], lower, upper, cons[0].label)
    elif change == 3:  # a budget coefficient above one
        coeffs = np.ones(len(cons[0].cells))
        coeffs[_min_pos(cons[0].cells)] = 2
        cons[0] = AssignmentConstraint(cons[0].cells, lower, upper * 2, cons[0].label, coeffs)
    elif change == 4:  # a second single-row constraint
        cons.append(AssignmentConstraint([(k - 1, 0)], 0, 1, label="extra"))
    elif change == 5 and k > 1:  # a row with no budget
        cons.pop(0)
    elif change == 6 and len(cons) > k:  # a constraint that misses one row of a column
        con = cons[-1]
        kept = sorted(_cell_coeffs(con))[1:]
        if len({i for (i, _), _ in kept}) > 1:
            cons[-1] = AssignmentConstraint([c for c, _ in kept], con.lower, con.upper, con.label,
                                            [m for _, m in kept])
    elif change == 7:  # one target weight differs
        t = targets[0]
        weights = t.weights.copy()
        weights[_min_pos(t.cells)] += 0.25
        targets[0] = Target(t.id, t.cells, weights, -1.0, -5.0)
    elif change == 8 and lower == upper and upper > 1:  # budgets in [1, upper]
        cons[:k] = [AssignmentConstraint(c.cells, 1, upper, c.label) for c in cons[:k]]
    return AraGame(k, n, tuple(cons), tuple(targets), validate_weights=False)


def _games_for_symmetry_test():
    for seed in range(150):
        rng = np.random.default_rng(7000 + seed)
        yield random_raw_game(rng)
        yield _random_symmetric_game(rng)
    for seed in range(6):
        game = encode_fams(random_toy_fams(np.random.default_rng(500 + seed)))
        yield game
        yield to_pe0(game).game
        yield encode_tsg(random_toy_tsg(np.random.default_rng(2000 + seed)))
        yield _with_redundant_cell_bound(game)


def test_over_columns_matches_loop_reference(fig1b_fams):
    games = list(_games_for_symmetry_test())
    game = encode_fams(fig1b_fams)
    games += [game] + [mutate(game) for mutate in (_break_weight, _break_coeff,
                                                    _break_budget_bounds, _break_budget_equal)]
    found = [marginal._over_columns(g) for g in games]
    assert [_described(f) for f in found] == [_described(_over_columns_loop(g)) for g in games]
    # both answers occur often enough for the comparison to mean something
    assert sum(f is None for f in found) > 50
    assert sum(f is not None for f in found) > 50
