import numpy as np
import pytest

from ara import marginal
from ara.core import AraGame, AssignmentConstraint, Target, constraint_violations
from ara.exact import enumerate_pure, exact_maximin
from ara.fams import FamsInstance, encode_fams
from ara.generators import GenConfig, gen_fams
from ara.marginal import GameInfeasibleError, solve_marginal
from ara.sampling import to_pe0
from ara.tsg import CategorySpec, ResourceSpec, RiskLevel, TeamSpec, TsgInstance, encode_tsg
from conftest import random_toy_fams, random_toy_tsg


def test_single_saturating_target():
    con = AssignmentConstraint(frozenset({(0, 0)}), 0, 1, label="cell")
    t = Target("t", frozenset({(0, 0)}), {(0, 0): 1.0}, -1.0, -5.0)
    game = AraGame(1, 1, (con,), (t,))
    ms = solve_marginal(game)
    assert ms.upper_bound == pytest.approx(-1.0)
    assert ms.per_type_values["default"] == pytest.approx(-1.0)


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
    assert constraint_violations(game, ms.x_m.values, tol=1e-7) == []
    assert np.all(ms.x_m.values >= 0)


def test_upper_bound_is_weighted_type_values(fig1c_tsg):
    game = encode_tsg(fig1c_tsg)
    ms = solve_marginal(game)
    recomputed = sum(a.probability * ms.per_type_values[a.id]
                     for a in game.adversary_types)
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
    assert constraint_violations(game, b.x_m.values, tol=1e-7) == []


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
def test_dominance_on_random_toys(seed):
    rng = np.random.default_rng(1000 + seed)
    inst = random_toy_fams(rng) if seed % 2 else random_toy_tsg(rng)
    game = encode_fams(inst) if seed % 2 else encode_tsg(inst)
    ms = solve_marginal(game)
    strategies = enumerate_pure(game, cap=200_000)
    assert not strategies.truncated
    exact = exact_maximin(game, strategies)
    assert ms.upper_bound >= exact.value - 1e-6


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
    extra = AssignmentConstraint(frozenset({(0, 0)}), 0, game.constraints[0].upper,
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
    assert constraint_violations(game, x, tol=1e-9) == []
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
    budgets = tuple(AssignmentConstraint(frozenset((i, j) for j in range(n)), 1, 1,
                                         label=f"row {i}") for i in range(k))
    columns = tuple(AssignmentConstraint(frozenset((i, j) for i in range(k)), 0, 1,
                                         label=f"column {j}") for j in range(n))
    targets = tuple(Target(f"t{j}", frozenset((i, j) for i in range(k)),
                           {(i, j): 1.0 for i in range(k)}, -1.0, -3.0) for j in range(n))
    game = AraGame(k, n, budgets + columns, targets)
    with pytest.raises(GameInfeasibleError) as err:
        solve_marginal(game)
    (prog, _), = lp_solutions
    assert prog.num_vars == n + 1
    names = [c.name() for c in game.constraints]
    assert err.value.rows
    assert all(any(name in row for name in names) for row in err.value.rows)


def _break_weight(game):
    t = game.targets[0]
    weights = dict(t.weights)
    cell = min(weights)
    weights[cell] = 0.5
    targets = (Target(t.id, t.cells, weights, t.payoff_defended, t.payoff_undefended),)
    return AraGame(game.k, game.n, game.constraints, targets + game.targets[1:])


def _break_coeff(game):
    cons = list(game.constraints)
    ci = next(i for i, c in enumerate(cons) if c.label.startswith("flight"))
    con = cons[ci]
    cons[ci] = AssignmentConstraint(con.cells, con.lower, 2, con.label, {min(con.cells): 2})
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
