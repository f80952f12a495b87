from collections import Counter

import numpy as np
import pytest

from ara.core import GameError
from ara.exact import enumerate_pure
from ara.marginal import solve_marginal
from ara.sampling import EqualityFixFailed, estimate_mixed, to_pe0
from ara.tsg import (
    CategorySpec,
    ResourceSpec,
    RiskLevel,
    TeamSpec,
    TsgFixer,
    TsgInstance,
    encode_tsg,
    tsg_detection_ratio,
)
from conftest import coverage, random_raw_game, random_toy_tsg, violations


class TestEncode:
    def test_fig1c_shape(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        assert (game.k, game.n) == (3, 3)
        ineq = [c for c in game.constraints if not c.is_equality]
        eq = [c for c in game.constraints if c.is_equality]
        assert len(ineq) == 2 and len(eq) == 3
        assert len(game.adversary_types) == 2
        caps = {c.name(): c.upper for c in ineq}
        assert caps == {"capacity xray": 7, "capacity md": 15}

    def test_single_team_unique_strategy(self):
        inst = TsgInstance(
            resources=(ResourceSpec("r", 4),),
            teams=(TeamSpec("t", ("r",), 0.7),),
            categories=(CategorySpec("c", "risk", "f", 4, -1.0, -3.0),),
            risk_levels=(RiskLevel("risk", 1.0),))
        game = encode_tsg(inst)
        out = enumerate_pure(game)
        assert len(out) == 1
        assert coverage(game, out[0], "c") == pytest.approx(0.7)

    @pytest.mark.parametrize("seed", range(5))
    def test_weights_keep_coverage_below_one(self, seed):
        inst = random_toy_tsg(np.random.default_rng(600 + seed))
        game = encode_tsg(inst)
        for s in enumerate_pure(game):
            for c in inst.categories:
                assert coverage(game, s, c.id) <= 1.0 + 1e-12

    def test_multiset_membership_consumes_capacity_per_occurrence(self):
        inst = TsgInstance(
            resources=(ResourceSpec("r", 4),),
            teams=(TeamSpec("t", ("r", "r"), 0.5),),
            categories=(CategorySpec("c", "risk", "f", 2, -1.0, -3.0),),
            risk_levels=(RiskLevel("risk", 1.0),))
        game = encode_tsg(inst)
        cap = next(c for c in game.constraints if c.name() == "capacity r")
        assert cap.cells.tolist() == [[0, 0]] and cap.coeffs.tolist() == [2]
        m = np.full((1, 1), 2, dtype=np.int64)
        assert violations(game, m) == []  # 2 units x 2 draws = 4 = capacity
        inst_tight = TsgInstance(
            resources=(ResourceSpec("r", 3),),
            teams=(TeamSpec("t", ("r", "r"), 0.5),),
            categories=(CategorySpec("c", "risk", "f", 2, -1.0, -3.0),),
            risk_levels=(RiskLevel("risk", 1.0),))
        assert [v.achieved for v in violations(encode_tsg(inst_tight), m)] == [4]


class TestFixInequalities:
    def test_fig2_overflow_comes_off_the_big_category(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        x = np.array([[2, 3, 3],
                      [0, 0, 0],
                      [0, 0, 12]], dtype=np.int64)  # x-ray rows carry 8 > 7
        out = TsgFixer(fig1c_tsg).fix_inequalities(x, pe0, np.random.default_rng(0))
        assert out[0, 2] == 2  # one unit removed from the 15-passenger column
        assert np.array_equal(x - out, np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))

    def test_no_violation_unchanged(self, fig1c_tsg):
        pe0 = to_pe0(encode_tsg(fig1c_tsg))
        x = np.array([[2, 3, 2], [0, 0, 0], [0, 0, 13]], dtype=np.int64)
        out = TsgFixer(fig1c_tsg).fix_inequalities(x, pe0, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_most_violated_resource_first(self):
        # team m uses only b, team z uses both; a is over by 2, b by 1.
        # Draining a first also relieves b, so m keeps both units; fixing b
        # first would have cost m a unit.
        inst = TsgInstance(
            resources=(ResourceSpec("a", 2), ResourceSpec("b", 5)),
            teams=(TeamSpec("m", ("b",), 0.5), TeamSpec("z", ("a", "b"), 0.5)),
            categories=(CategorySpec("c0", "risk", "f0", 6, -1.0, -3.0),),
            risk_levels=(RiskLevel("risk", 1.0),))
        pe0 = to_pe0(encode_tsg(inst))
        x = np.array([[2], [4]], dtype=np.int64)  # a usage 4 > 2, b usage 6 > 5
        out = TsgFixer(inst).fix_inequalities(x, pe0, np.random.default_rng(0))
        assert np.array_equal(out, np.array([[2], [2]]))

    def test_only_decreases(self, fig1c_tsg):
        pe0 = to_pe0(encode_tsg(fig1c_tsg))
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = np.zeros((3, 3), dtype=np.int64)
            for j, cat in enumerate(fig1c_tsg.categories):
                split = rng.multinomial(cat.passengers, [1 / 3] * 3)
                x[:, j] = split
            out = TsgFixer(fig1c_tsg).fix_inequalities(x, pe0, rng)
            assert np.all(out <= x)


class TestFixEqualities:
    def test_fig2_deficit_filled_by_md_team(self, fig1c_tsg):
        pe0 = to_pe0(encode_tsg(fig1c_tsg))
        # after capacity repair: x-ray saturated at 7, third column short one
        x = np.array([[2, 3, 2], [0, 0, 0], [0, 0, 12]], dtype=np.int64)
        out = TsgFixer(fig1c_tsg).fix_equalities(x, pe0, np.random.default_rng(0))
        assert out[2, 2] == 13  # only the md-only team has slack
        assert np.array_equal(out - x, np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1]]))

    def test_satisfied_unchanged(self, fig1c_tsg):
        pe0 = to_pe0(encode_tsg(fig1c_tsg))
        x = np.array([[2, 3, 2], [0, 0, 0], [0, 0, 13]], dtype=np.int64)
        out = TsgFixer(fig1c_tsg).fix_equalities(x, pe0, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_least_slack_team_used(self):
        inst = TsgInstance(
            resources=(ResourceSpec("a", 1), ResourceSpec("b", 4)),
            teams=(TeamSpec("ta", ("a",), 0.5), TeamSpec("tb", ("b",), 0.5)),
            categories=(CategorySpec("c", "risk", "f", 1, -1.0, -3.0),),
            risk_levels=(RiskLevel("risk", 1.0),))
        pe0 = to_pe0(encode_tsg(inst))
        x = np.zeros((2, 1), dtype=np.int64)  # deficit 1; slacks are {1, 4}
        out = TsgFixer(inst).fix_equalities(x, pe0, np.random.default_rng(0))
        assert out[0, 0] == 1 and out[1, 0] == 0

    def test_failure_signals_resample(self):
        inst = TsgInstance(
            resources=(ResourceSpec("a", 2), ResourceSpec("b", 2)),
            teams=(TeamSpec("ta", ("a",), 0.5), TeamSpec("tb", ("b",), 0.5)),
            categories=(CategorySpec("c0", "risk", "f0", 2, -1.0, -3.0),
                        CategorySpec("c1", "risk", "f1", 2, -1.0, -3.0)),
            risk_levels=(RiskLevel("risk", 1.0),))
        pe0 = to_pe0(encode_tsg(inst))
        # both resources saturated by the first column; second column short
        x = np.array([[2, 0], [2, 0]], dtype=np.int64)
        with pytest.raises(EqualityFixFailed):
            TsgFixer(inst).fix_equalities(x, pe0, np.random.default_rng(0))

    def test_smaller_categories_filled_first(self):
        # slack 2 and demand 3: ascending order serves the one-passenger
        # category, then fails on the big one; descending order would have
        # failed on the small one instead
        inst = TsgInstance(
            resources=(ResourceSpec("a", 2), ResourceSpec("unused", 5)),
            teams=(TeamSpec("ta", ("a",), 0.5),),
            categories=(CategorySpec("big", "risk", "f0", 2, -1.0, -3.0),
                        CategorySpec("small", "risk", "f1", 1, -1.0, -3.0)),
            risk_levels=(RiskLevel("risk", 1.0),))
        pe0 = to_pe0(encode_tsg(inst))
        x = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(EqualityFixFailed) as err:
            TsgFixer(inst).fix_equalities(x, pe0, np.random.default_rng(0))
        assert "big" in str(err.value) and "small" not in str(err.value)


def _random_multiset_tsg(rng):
    """A screening instance whose teams may hold a resource twice, with ids
    out of index order so that the id tie-breaks matter."""
    while True:
        n_res, n_teams, n_cats = (int(v) for v in rng.integers(1, [4, 5, 6]))
        team_ids, cat_ids = rng.permutation(n_teams), rng.permutation(n_cats)
        resources = tuple(ResourceSpec(f"r{r}", int(rng.integers(0, 12))) for r in range(n_res))
        teams = tuple(TeamSpec(f"t{team_ids[i]}", tuple(f"r{m}" for m in rng.integers(
            0, n_res, size=int(rng.integers(1, 4)))), 0.5) for i in range(n_teams))
        cats = tuple(CategorySpec(f"c{cat_ids[j]}", "risk", f"f{j}", int(rng.integers(1, 4)),
                                  -1.0, -3.0) for j in range(n_cats))
        try:
            return TsgInstance(resources, teams, cats, (RiskLevel("risk", 1.0),))
        except GameError:
            continue


def _reference_fix_inequalities(inst, x):
    """Capacity repair cell by cell: take one unit off the first cell with
    allocation, in (-passengers, category id, team id) order, among the
    teams using the first most violated resource, until none is over."""
    teams, cats = inst.teams, inst.categories
    x = x.copy()
    while True:
        over = [sum(t.members.count(r.id) * x[i].sum() for i, t in enumerate(teams)) - r.capacity
                for r in inst.resources]
        if max(over, default=0) <= 0:
            return x
        r = inst.resources[over.index(max(over))]
        cells = [(i, j) for i, t in enumerate(teams) if r.id in t.members
                 for j in range(len(cats)) if x[i, j] > 0]
        x[min(cells, key=lambda c: (-cats[c[1]].passengers, cats[c[1]].id, teams[c[0]].id))] -= 1


def _reference_fix_equalities(inst, x):
    """Equality repair unit by unit: categories by (passengers, id), each
    unit to the first team whose resources all have room, least slack first."""
    teams, cats = inst.teams, inst.categories
    x = x.copy()

    def slack(r):
        return r.capacity - sum(t.members.count(r.id) * x[i].sum() for i, t in enumerate(teams))

    for j in sorted(range(len(cats)), key=lambda j: (cats[j].passengers, cats[j].id)):
        while x[:, j].sum() < cats[j].passengers:
            fits = [i for i, t in enumerate(teams)
                    if all(slack(r) >= t.members.count(r.id) for r in inst.resources
                           if r.id in t.members)]
            if not fits:
                need = cats[j].passengers - x[:, j].sum()
                raise EqualityFixFailed(f"category {cats[j].id} is short {need} "
                                        "with no team slack left")
            i = min(fits, key=lambda i: min(slack(r) for r in inst.resources
                                            if r.id in teams[i].members))
            x[i, j] += 1
    return x


def _outcome(fix, *args):
    try:
        return fix(*args).tolist()
    except EqualityFixFailed as err:
        return str(err)


class TestFixersMatchReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_multiset_instances(self, seed):
        rng = np.random.default_rng(900 + seed)
        # equality-repair inputs by how many categories are short (2 for
        # several), and the refills that failed
        seen = Counter()
        for _ in range(25):
            inst = _random_multiset_tsg(rng)
            fixer, pe0 = TsgFixer(inst), to_pe0(encode_tsg(inst))
            x = rng.integers(0, 4, size=(len(inst.teams), len(inst.categories)))
            fixed = fixer.fix_inequalities(x, pe0, rng)
            assert fixed.tolist() == _reference_fix_inequalities(inst, x).tolist()
            passengers = np.array([c.passengers for c in inst.categories])
            for y in (x, fixed):
                got = _outcome(fixer.fix_equalities, y, pe0, rng)
                assert got == _outcome(_reference_fix_equalities, inst, y)
                seen[min(int(np.count_nonzero(y.sum(axis=0) < passengers)), 2)] += 1
                seen["failed"] += isinstance(got, str)
        assert all(seen[key] for key in (0, 1, 2, "failed")), seen


class TestDetectionRatio:
    def test_identity_ratio(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        x = np.array([[2.0, 3.0, 0.0], [0, 0, 2.0], [0, 0, 13.0]])
        res = tsg_detection_ratio(x, x, game)
        assert res.min_ratio == pytest.approx(1.0)

    def test_single_category_drop(self):
        inst = TsgInstance(
            resources=(ResourceSpec("r", 30),),
            teams=(TeamSpec("t", ("r",), 0.9),),
            categories=(CategorySpec("c0", "risk", "f0", 10, -1.0, -3.0),
                        CategorySpec("c1", "risk", "f1", 10, -1.0, -3.0)),
            risk_levels=(RiskLevel("risk", 1.0),))
        game = encode_tsg(inst)
        # coverage c0: 0.60 -> 0.55 (weights 0.9/10 per unit)
        before = np.array([[20 / 3, 10.0]])
        after = np.array([[55 / 9, 10.0]])
        res = tsg_detection_ratio(before, after, game)
        assert res.per_category["c0"] == pytest.approx(0.55 / 0.60, abs=1e-9)
        assert res.per_category["c1"] == pytest.approx(1.0)
        assert res.min_ratio == pytest.approx(0.9167, abs=1e-4)

    def test_zero_before_counts_as_unchanged(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        zero = np.zeros((3, 3))
        res = tsg_detection_ratio(zero, zero, game)
        assert res.min_ratio == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_stack_matches_per_sample_loop(self, seed):
        rng = np.random.default_rng(1300 + seed)
        game = random_raw_game(rng)  # its last target has no cells
        before = rng.random((game.k, game.n)) * 2
        before[0, 0] = 0.0
        stack = rng.integers(0, 3, size=(5, game.k, game.n))
        res = tsg_detection_ratio(before, stack, game)
        worst = 1.0
        for t in game.targets:
            b = coverage(game, before, t.id)
            ratios = [1.0 if b < 1e-12 else coverage(game, s, t.id) / b for s in stack]
            assert res.per_category[t.id] == pytest.approx(min(ratios), abs=1e-12)
            worst = min(worst, *ratios)
        assert res.per_category["empty"] == 1.0
        assert res.min_ratio == pytest.approx(worst, abs=1e-12)

    def test_narrow_stack_matches_int64(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        est = estimate_mixed(ms, pe0, TsgFixer(fig1c_tsg), np.random.default_rng(8), m=50)
        stack = np.stack([s.values for s in est.estimate.samples])
        assert stack.dtype == np.int8
        assert (tsg_detection_ratio(ms.x_m.values, stack, game)
                == tsg_detection_ratio(ms.x_m.values, stack.astype(np.int64), game))

    def test_instrumented_pipeline_run(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        rng = np.random.default_rng(77)
        fixer = TsgFixer(fig1c_tsg)
        for p in estimate_mixed(ms, pe0, fixer, rng, m=100).estimate.samples:
            res = tsg_detection_ratio(ms.x_m.values, p.values, game)
            assert res.min_ratio > 0
            for t in game.targets:
                before = coverage(game, ms.x_m.values, t.id)
                after = coverage(game, p.values, t.id)
                assert after >= res.min_ratio * before - 1e-9


class TestObservationTwo:
    def test_unit_decrease_changes_coverage_by_weight(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        x = np.array([[2.0, 3.0, 2.0], [0, 0, 0], [0, 0, 13.0]])
        for (i, j), cat in ((tuple((0, 2)), fig1c_tsg.categories[2]),):
            before = coverage(game, x, cat.id)
            bumped = x.copy()
            bumped[i, j] -= 1
            after = coverage(game, bumped, cat.id)
            expected = fig1c_tsg.teams[i].effectiveness / cat.passengers
            assert before - after == pytest.approx(expected, abs=1e-12)


class TestPipelineValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_toys_end_to_end(self, seed):
        rng = np.random.default_rng(700 + seed)
        inst = random_toy_tsg(rng)
        game = encode_tsg(inst)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        fixer = TsgFixer(inst)
        for p in estimate_mixed(ms, pe0, fixer, rng, m=100).estimate.samples:
            assert violations(game, p) == []
