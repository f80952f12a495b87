import re

import networkx as nx
import numpy as np
import pytest

from ara.core import (
    AdversaryType,
    AraGame,
    AssignmentConstraint,
    GameError,
    MarginalStrategy,
    MixedStrategyEstimate,
    PureStrategy,
    Target,
    check_implementability,
    game_value,
)
from ara.fams import FamsInstance, FlightSpec, Schedule, encode_fams
from ara.tsg import encode_tsg
from conftest import (
    constraint_sum,
    coverage,
    random_raw_game,
    utility,
    violations,
    violations_within,
)


def single_target_game(u_def=-1.0, u_undef=-5.0, weight=1.0):
    con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1, label="row 0")
    t = Target("t", [(0, 0), (0, 1)], [weight, weight], u_def, u_undef)
    return AraGame(1, 2, (con,), (t,))


def screening_column_game():
    cells = [(0, 0), (1, 0)]
    con = AssignmentConstraint(cells, 15, 15, label="column")
    t = Target("cat", cells, [0.9 / 15, 0.5 / 15], -1.0, -7.0)
    return AraGame(2, 1, (con,), (t,))


class TestCoverage:
    def test_all_zero_matrix(self):
        game = single_target_game()
        assert coverage(game, np.zeros((1, 2)), "t") == 0.0

    def test_one_covering_cell(self):
        game = single_target_game()
        m = np.zeros((1, 2))
        m[0, 0] = 1.0
        assert coverage(game, m, "t") == pytest.approx(1.0)

    def test_screening_weighted_sum(self):
        game = screening_column_game()
        m = np.array([[5.0], [10.0]])
        assert coverage(game, m, "cat") == pytest.approx((0.9 * 5 + 0.5 * 10) / 15)

    def test_unknown_target(self):
        game = single_target_game()
        with pytest.raises(GameError, match="unknown target"):
            coverage(game, np.zeros((1, 2)), "nope")

    def test_coverage_is_not_clamped(self):
        game = single_target_game()
        m = np.array([[1.0, 1.0]])
        assert coverage(game, m, "t") == pytest.approx(2.0)


class TestDefenderUtility:
    def test_undefended(self):
        game = single_target_game(-1.0, -5.0)
        assert utility(game, np.zeros((1, 2)), "t") == pytest.approx(-5.0)

    def test_fully_defended(self):
        game = single_target_game(-1.0, -5.0)
        m = np.array([[1.0, 0.0]])
        assert utility(game, m, "t") == pytest.approx(-1.0)

    def test_interpolation(self):
        game = single_target_game(-1.0, -9.0)
        m = np.array([[0.25, 0.0]])
        assert utility(game, m, "t") == pytest.approx(-7.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_coverage(self, seed):
        rng = np.random.default_rng(seed)
        u_undef = -float(rng.integers(2, 11))
        game = single_target_game(-1.0, u_undef)
        last = None
        for c in np.linspace(0, 1, 7):
            val = utility(game, np.array([[c, 0.0]]), "t")
            if last is not None:
                assert val >= last - 1e-12
            last = val


class TestGameValue:
    def test_min_over_targets(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1)
        t1 = Target("a", [(0, 0)], [1.0], -1.0, -3.0)
        t2 = Target("b", [(0, 1)], [1.0], -1.0, -7.0)
        game = AraGame(1, 2, (con,), (t1, t2))
        assert game_value(game, np.zeros((1, 2))) == pytest.approx(-7.0)

    def test_expectation_over_types(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1)
        t1 = Target("a", [(0, 0)], [1.0], -1.0, -2.0)
        t2 = Target("b", [(0, 1)], [1.0], -1.0, -6.0)
        types = (AdversaryType("x", 0.5, frozenset({"a"})),
                 AdversaryType("y", 0.5, frozenset({"b"})))
        game = AraGame(1, 2, (con,), (t1, t2), types)
        assert game_value(game, np.zeros((1, 2))) == pytest.approx(-4.0)

    def test_matches_exhaustive_adversary_enumeration(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        rng = np.random.default_rng(3)
        m = np.zeros((3, 3))
        for j, cat in enumerate(fig1c_tsg.categories):
            share = rng.dirichlet(np.ones(3)) * cat.passengers
            m[:, j] = share
        by_risk = {}
        for cat in fig1c_tsg.categories:
            by_risk.setdefault(cat.risk, []).append(cat.id)
        expected = sum(
            r.probability * min(utility(game, m, cid) for cid in by_risk[r.id])
            for r in fig1c_tsg.risk_levels)
        assert game_value(game, m) == pytest.approx(expected)

    def test_zero_probability_type_ignored(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1)
        t1 = Target("a", [(0, 0)], [1.0], -1.0, -2.0)
        t2 = Target("b", [(0, 1)], [1.0], -1.0, -6.0)
        types = (AdversaryType("x", 1.0, frozenset({"a"})),
                 AdversaryType("y", 0.0, frozenset({"b"})))
        game = AraGame(1, 2, (con,), (t1, t2), types)
        assert game_value(game, np.zeros((1, 2))) == pytest.approx(-2.0)

    def test_singleton_type_value_below_every_target(self):
        rng = np.random.default_rng(11)
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1)
        t1 = Target("a", [(0, 0)], [1.0], -1.0, -3.0)
        t2 = Target("b", [(0, 1)], [1.0], -1.0, -7.0)
        game = AraGame(1, 2, (con,), (t1, t2))
        for _ in range(20):
            m = rng.random((1, 2)) * 0.5
            v = game_value(game, m)
            assert v <= utility(game, m, "a") + 1e-12
            assert v <= utility(game, m, "b") + 1e-12


class TestValidPure:
    def test_fractional_entry(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        m = np.zeros((3, 3))
        m[0, 0] = 0.5
        with pytest.raises(GameError, match="fractional"):
            violations(game, m)

    def test_capacity_violation_named_with_sum(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        # columns sum correctly but the x-ray rows carry 8 > 7
        m = np.array([[2, 3, 0],
                      [0, 0, 3],
                      [0, 0, 12]])
        named = {v.constraint: v for v in violations(game, m)}
        assert "capacity xray" in named
        assert named["capacity xray"].achieved == 8

    def test_valid_matrix_after_repair_shape(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        m = np.array([[2, 3, 0],
                      [0, 0, 2],
                      [0, 0, 13]])
        assert violations(game, m) == []

    def test_pure_strategies_live_in_the_marginal_polytope(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        m = np.zeros((3, 3), dtype=np.int64)
        m[0, 0] = 1
        m[1, 2] = 1
        assert violations(game, m) == []
        assert violations_within(game, m.astype(float), 1e-7) == []


def loop_coverage(game, m, t):
    return float(sum(w * m[i, j] for (i, j), w in zip(t.cells.tolist(), t.weights.tolist())))


def loop_game_value(game, m):
    total = 0.0
    for a in game.adversary_types:
        if a.probability == 0.0 or not a.targets:
            continue
        utils = []
        for tid in a.targets:
            t = game.target(tid)
            c = loop_coverage(game, m, t)
            utils.append(c * t.payoff_defended + (1.0 - c) * t.payoff_undefended)
        total += a.probability * min(utils)
    return total


class TestCompiledGame:
    """The index-array form against loops over the game objects."""

    @pytest.mark.parametrize("seed", range(30))
    def test_violations_match_constraint_loop(self, seed):
        rng = np.random.default_rng(900 + seed)
        game = random_raw_game(rng)
        for _ in range(10):
            m = rng.integers(0, 4, size=(game.k, game.n))
            expected = [(c.name(), constraint_sum(c, m)) for c in game.constraints
                        if not c.lower <= constraint_sum(c, m) <= c.upper]
            got = [(v.constraint, v.achieved) for v in violations_within(game, m, 0.0)]
            assert got == expected

    def test_row_budget_matches_constraint_loop(self):
        found = 0
        for seed in range(300):
            game = random_raw_game(np.random.default_rng(6000 + seed))
            expected = []
            for i in range(game.k):
                row = [(i, j) for j in range(game.n)]
                budgets = [ci for ci, con in enumerate(game.constraints)
                           if sorted(map(tuple, con.cells.tolist())) == row
                           and (con.coeffs is None or set(con.coeffs.tolist()) == {1})]
                expected.append(budgets[0] if budgets else -1)
            assert game.compiled.row_budget.tolist() == expected
            found += sum(b >= 0 for b in expected)
        assert found > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_of_several_matrices_match_constraint_loop(self, seed):
        # integer matrices (one all zero) sum exactly; a real one only in
        # another order than the loop
        rng = np.random.default_rng(1000 + seed)
        game = random_raw_game(rng)
        mats = [rng.integers(0, 3, size=(game.k, game.n)) for _ in range(4)]
        mats.insert(2, np.zeros((game.k, game.n), dtype=np.int64))
        mats.append(rng.random((game.k, game.n)) * 2)
        sums = game.compiled.constraint_sums(mats)
        assert sums.shape == (len(mats), len(game.constraints))
        for m, row in zip(mats[:-1], sums):
            assert row.tolist() == [constraint_sum(c, m) for c in game.constraints]
        expected = [constraint_sum(c, mats[-1]) for c in game.constraints]
        assert np.allclose(sums[-1], expected, rtol=0, atol=1e-12)
        assert game.compiled.violations(mats) == [violations_within(game, m, 0.0)
                                                  for m in mats]

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_of_a_block_match_one_matrix_at_a_time(self, seed):
        # bit for bit, real matrices too: the marginal check sums a real x
        # alone, the sample check a block of integer ones
        rng = np.random.default_rng(1100 + seed)
        game = random_raw_game(rng)
        c = game.compiled
        shape = (game.k, game.n)
        sparse = rng.random(shape) * (rng.random(shape) < 0.3)
        mats = [rng.random(shape) * 3, np.zeros(shape), sparse, np.full(shape, 0.1),
                rng.integers(0, 3, size=shape), np.zeros(shape, dtype=np.int64)]
        sums = c.constraint_sums(mats)
        assert sums.shape == (len(mats), len(game.constraints))
        for m, row in zip(mats, sums):
            assert np.array_equal(row, c.constraint_sums([m])[0])
        assert not sums[1].any() and not sums[-1].any()

    def test_violations_of_narrow_matrices_match_int64(self, fig1c_tsg):
        # cells of 100 in int8, whose constraint sums pass the int8 range
        game = encode_tsg(fig1c_tsg)
        rng = np.random.default_rng(5)
        wide = rng.integers(0, 101, size=(6, game.k, game.n))
        narrow = [m.astype(np.int8) for m in wide]
        want = game.compiled.violations(list(wide))
        assert any(want)
        assert game.compiled.violations(narrow) == want
        assert np.array_equal(game.compiled.constraint_sums(narrow),
                              game.compiled.constraint_sums(list(wide)))

    def test_sums_of_no_matrices_and_of_a_wrong_shape(self):
        game = random_raw_game(np.random.default_rng(1200))
        c = game.compiled
        assert c.constraint_sums([]).shape == (0, len(game.constraints))
        assert c.violations([]) == []
        with pytest.raises(GameError, match="shape"):
            c.constraint_sums([np.zeros((game.k, game.n)), np.zeros((game.k, game.n + 1))])

    @pytest.mark.parametrize("seed", range(30))
    def test_coverage_and_value_match_loops(self, seed):
        rng = np.random.default_rng(950 + seed)
        game = random_raw_game(rng)
        for _ in range(5):
            m = rng.random((game.k, game.n)) * 2
            for t in game.targets:
                assert coverage(game, m, t.id) == pytest.approx(loop_coverage(game, m, t),
                                                                abs=1e-12)
            assert game_value(game, m) == pytest.approx(loop_game_value(game, m), abs=1e-12)
        stack = rng.integers(0, 3, size=(4, game.k, game.n))
        per_sample = np.array([[loop_coverage(game, s, t) for t in game.targets] for s in stack])
        assert np.allclose(game.compiled.coverages(stack), per_sample, rtol=0, atol=1e-12)

    def test_entries_ascend_row_major_within_each_segment(self):
        con = AssignmentConstraint([(1, 0), (0, 2), (0, 1)], 0, 3, "c", coeffs=[3, 2, 1])
        t = Target("t", [(1, 1), (0, 2)], [0.25, 0.5], -1.0, -2.0)
        c = AraGame(2, 3, (AssignmentConstraint([(1, 2)], 0, 1), con), (t,),
                    validate_weights=False).compiled
        assert c.con_cell.tolist() == [5, 1, 2, 3]
        assert c.con_coeff.tolist() == [1, 1, 2, 3]
        assert c.con_seg.tolist() == [0, 1, 1, 1]
        assert c.tgt_cell.tolist() == [2, 4] and c.tgt_weight.tolist() == [0.5, 0.25]

    def test_flight_in_no_schedule_has_zero_coverage(self):
        inst = FamsInstance(2, (Schedule("s0", frozenset({"f0"})),),
                            (FlightSpec("f0", -1.0, -4.0), FlightSpec("lonely", -1.0, -6.0)))
        game = encode_fams(inst)
        m = np.array([[1], [0]])
        assert coverage(game, m, "f0") == 1.0
        assert coverage(game, m, "lonely") == 0.0
        assert game_value(game, m) == -6.0 == loop_game_value(game, m)

    def test_wrong_shape_is_a_game_error(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        with pytest.raises(GameError, match="shape"):
            violations_within(game, np.zeros((3, 4)), 0.0)
        with pytest.raises(GameError, match="shape"):
            coverage(game, np.zeros((2, 3)), "c_r1_f1")


def crossing_graph(game: AraGame) -> nx.Graph:
    """The crossing graph by brute force over Python sets of each
    constraint's pairs: an edge joins two constraints that share a cell
    when neither holds all the other's cells."""
    sets = [set(map(tuple, con.cells.tolist())) for con in game.constraints]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(sets)))
    graph.add_edges_from((a, b) for a in range(len(sets)) for b in range(a + 1, len(sets))
                         if sets[a] & sets[b] and not sets[a] <= sets[b]
                         and not sets[b] <= sets[a])
    return graph


class TestImplementability:
    def test_matches_brute_force_crossing_graph(self, fig1b_fams, fig1c_tsg):
        games = [random_raw_game(np.random.default_rng(5000 + seed)) for seed in range(200)]
        games += [encode_fams(fig1b_fams), encode_tsg(fig1c_tsg)]
        verdicts = []
        for game in games:
            graph = crossing_graph(game)
            result = check_implementability(game)
            assert result.bi_hierarchical == nx.is_bipartite(graph)
            if result.bi_hierarchical:  # a valid 2-colouring
                side = {v: 0 for v in result.partition[0]} | {v: 1 for v in result.partition[1]}
                assert sorted(side) == sorted(graph.nodes)
                assert len(side) == sum(map(len, result.partition))
                assert all(side[u] != side[v] for u, v in graph.edges)
            else:  # an odd cycle of crossing pairs
                cycle = result.odd_cycle
                assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
                assert all(graph.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
            verdicts.append(result.bi_hierarchical)
        # both verdicts occur often enough for the comparison to mean something
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 10

    def test_disjoint_rows_are_laminar(self):
        cons = tuple(AssignmentConstraint([(i, j) for j in range(3)], 1, 1,
                                          label=f"row {i}") for i in range(2))
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        game = AraGame(2, 3, cons, (t,), validate_weights=False)
        assert check_implementability(game).bi_hierarchical

    def test_rows_and_columns_split(self):
        rows = [AssignmentConstraint([(i, j) for j in range(3)], 1, 1,
                                     label=f"row {i}") for i in range(3)]
        cols = [AssignmentConstraint([(i, j) for i in range(3)], 1, 1,
                                     label=f"col {j}") for j in range(3)]
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        game = AraGame(3, 3, tuple(rows + cols), (t,), validate_weights=False)
        result = check_implementability(game)
        assert result.bi_hierarchical
        sides = [set(part) for part in result.partition]
        # every row must land opposite every column
        for ri in range(3):
            for cj in range(3, 6):
                assert not (ri in sides[0] and cj in sides[0])
                assert not (ri in sides[1] and cj in sides[1])

    def test_fig1b_crossing_structure(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        result = check_implementability(game)
        assert not result.bi_hierarchical
        assert len(result.odd_cycle) % 2 == 1

    def test_fig1c_crossing_structure(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        result = check_implementability(game)
        assert not result.bi_hierarchical


class TestTypes:
    def test_constraint_bounds_validated(self):
        with pytest.raises(GameError):
            AssignmentConstraint([(0, 0)], 2, 1)
        with pytest.raises(GameError):
            AssignmentConstraint([], 0, 1)

    def test_target_payoff_order(self):
        with pytest.raises(GameError, match="undefended"):
            Target("t", [(0, 0)], [1.0], -5.0, -1.0)

    def test_type_probabilities_must_sum_to_one(self):
        con = AssignmentConstraint([(0, 0)], 0, 1)
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        types = (AdversaryType("x", 0.4, frozenset({"t"})),)
        with pytest.raises(GameError, match="sum"):
            AraGame(1, 1, (con,), (t,), types)

    def test_types_must_partition_targets(self):
        con = AssignmentConstraint([(0, 0)], 0, 1)
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        types = (AdversaryType("x", 0.5, frozenset({"t"})),
                 AdversaryType("y", 0.5, frozenset({"t"})))
        with pytest.raises(GameError, match="share"):
            AraGame(1, 1, (con,), (t,), types)

    def test_target_cap(self):
        con = AssignmentConstraint([(0, 0)], 0, 1)
        targets = tuple(Target(f"t{i}", [(0, 0)], [0.0], 0.0, 0.0)
                        for i in range(65))
        with pytest.raises(GameError, match="cap"):
            AraGame(1, 1, (con,), targets)

    def test_weight_bound_rejected_when_above_one(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 2, label="row")
        t = Target("t", [(0, 0), (0, 1)], [1.0, 1.0], 0.0, 0.0)
        with pytest.raises(GameError, match="coverage above one"):
            AraGame(1, 2, (con,), (t,))

    def test_weight_bound_accepts_tight_case(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 0, 2, label="row")
        t = Target("t", [(0, 0), (0, 1)], [0.5, 0.5], 0.0, 0.0)
        AraGame(1, 2, (con,), (t,))

    @pytest.mark.parametrize("make, message", [
        (lambda: AssignmentConstraint([(0, 0), (0, 1)], 0, 1, "c", coeffs=[1]),
         "constraint 'c' has 1 coefficients for 2 cells"),
        (lambda: Target("t", [(0, 0)], [0.5, 0.5], 0.0, 0.0),
         "target 't' has 2 weights for 1 cells"),
        (lambda: AssignmentConstraint([(0, 0, 1)], 0, 1, "c"),
         "constraint 'c' cells must be (row, col) integer pairs"),
        (lambda: Target("t", [(0, 0), (0,)], [0.5, 0.5], 0.0, 0.0),
         "target 't' cells must be (row, col) integer pairs"),
        (lambda: AraGame(1, 2, (AssignmentConstraint([(0, 1), (0, 0), (0, 1)], 0, 1, "c"),), ()),
         "constraint 'c' repeats cell (0, 1)"),
        (lambda: AraGame(1, 2, (), (Target("t", [(0, 1), (0, 1)], [0.5, 0.25], 0.0, 0.0),)),
         "target 't' repeats cell (0, 1)"),
        (lambda: AraGame(1, 2, (AssignmentConstraint([(0, 2)], 0, 1, "c"),), ()),
         "constraint 'c' references cell (0, 2) outside 1x2"),
        (lambda: AraGame(1, 2, (AssignmentConstraint([(0, 0)], 0, 1, "c", coeffs=[0]),), ()),
         "constraint 'c' coefficients must be positive integers"),
        (lambda: AraGame(1, 2, (AssignmentConstraint([(0, 0)], 0, 1, "c", coeffs=[1.5]),), ()),
         "constraint 'c' coefficients must be positive integers"),
        (lambda: AraGame(1, 2, (), (Target("t", [(0, 0)], [-0.5], 0.0, 0.0),)),
         "target 't' has negative weights"),
        (lambda: AraGame(2 ** 14, 2 ** 14, (), ()), "cells exceed the 134217728 cap"),
    ], ids=["short-coeffs", "long-weights", "triple", "ragged", "repeated-constraint-cell",
            "repeated-target-cell", "outside", "zero-coeff", "fractional-coeff",
            "negative-weight", "too-many-cells"])
    def test_bad_cells_and_values_are_refused(self, make, message):
        with pytest.raises(GameError, match=re.escape(message)):
            make()

    def test_pure_strategy_must_be_integral(self):
        with pytest.raises(GameError, match="fractional"):
            PureStrategy(np.array([[0.5]]))

    @pytest.mark.parametrize("values, expected", [
        (np.array([[2, 0]], dtype=np.int8), np.int8),
        (np.array([[2, 0]], dtype=np.uint16), np.int8),
        (np.array([[2.0, -0.0]]), np.int8),
        (np.array([[True, False]]), np.int8),
        (np.zeros((0, 3), dtype=np.int64), np.int8),
    ], ids=["int8", "uint16", "float", "bool", "empty"])
    def test_pure_strategy_keeps_integers_and_rounds_the_rest(self, values, expected):
        p = PureStrategy(values)
        assert p.values.dtype == expected
        assert np.array_equal(p.values, values)

    @pytest.mark.parametrize("values", [np.array([[-1, 0]]), np.array([[0.0, -2.0]])],
                             ids=["int", "float"])
    def test_pure_strategy_refuses_negative_cells(self, values):
        with pytest.raises(GameError, match="negative"):
            PureStrategy(values)

    def test_strategies_are_frozen(self):
        p = PureStrategy(np.array([[1]]))
        with pytest.raises(ValueError):
            p.values[0, 0] = 2
        m = MarginalStrategy(np.array([[0.5]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.0

    def test_estimate_mean_checked(self):
        s = PureStrategy(np.array([[1]]))
        est = MixedStrategyEstimate([s, PureStrategy(np.array([[0]]))])
        assert len(est.samples) == 2
        assert est.mean[0, 0] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            est.mean[0, 0] = 1.0
        with pytest.raises(GameError, match="at least one sample"):
            MixedStrategyEstimate([])

    def test_estimate_mean_of_narrow_samples_does_not_wrap(self):
        ones = [PureStrategy(np.ones((1, 1), dtype=np.int8)) for _ in range(200)]
        assert MixedStrategyEstimate(ones).mean[0, 0] == 1.0
        big = [PureStrategy(np.full((1, 1), 200, dtype=np.uint8)) for _ in range(2)]
        assert MixedStrategyEstimate(big).mean[0, 0] == 200.0

    @pytest.mark.parametrize("first, second", [((1, 2), (2, 2)), ((2, 2), (1, 2))])
    def test_estimate_samples_must_share_a_shape(self, first, second):
        samples = [PureStrategy(np.zeros(first, dtype=np.int64)),
                   PureStrategy(np.zeros(second, dtype=np.int64))]
        with pytest.raises(GameError, match=re.escape(f"shapes {first} and {second}")):
            MixedStrategyEstimate(samples)

    @pytest.mark.parametrize("cells, dtype", [
        ([[0, 1]], np.int8), ([[0, 127]], np.int8), ([[0, 128]], np.int16),
        ([[0, 2 ** 15 - 1]], np.int16), ([[0, 2 ** 15]], np.int32), ([[0, 2 ** 31 - 1]], np.int32),
        ([[0, 2 ** 31]], np.int64), ([[0, 2 ** 63 - 1]], np.int64),
    ])
    def test_narrowest_int_holds_the_smallest_and_the_largest_cell(self, cells, dtype):
        # ``PureStrategy`` stores itself in the narrowest of int8, int16 and
        # int32 that holds its cells, and as given when none does
        x = np.array(cells, dtype=np.int64)
        p = PureStrategy(x)
        assert p.values.dtype == dtype
        assert np.array_equal(p.values, x)
        assert not np.shares_memory(p.values, x)  # a copy, also when int64 stays

    def test_narrowest_int_keeps_a_negative_cell_for_the_check(self):
        # the check runs before the narrowing copy: -2 ** 40 is 0 in int8
        for cells in ([[-3, 5]], [[-2 ** 40, 5]]):
            with pytest.raises(GameError, match="negative"):
                PureStrategy(np.array(cells, dtype=np.int64))

    def test_estimate_mean_equals_stacked_mean(self):
        rng = np.random.default_rng(3)
        samples = [PureStrategy(rng.integers(0, 4, size=(5, 7))) for _ in range(37)]
        est = MixedStrategyEstimate(samples)
        assert np.array_equal(est.mean, np.mean([s.values for s in samples], axis=0))
