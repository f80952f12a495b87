import hashlib
import sys

import numpy as np
import pytest

from ara import sampling
from ara.core import (AraGame, AssignmentConstraint, GameError, MarginalStrategy, PureStrategy,
                      Target, game_value)
from ara.fams import FamsFixer, encode_fams
from ara.generators import GenConfig, gen_fams, gen_tsg
from ara.marginal import MarginalSolution, solve_marginal
from ara.sampling import (
    EqualityFixFailed,
    Pe0Form,
    Pe0StructureError,
    SamplingFailure,
    _CombSampler,
    estimate_mixed,
    to_pe0,
)
from ara.tsg import TsgFixer, encode_tsg
from conftest import constraint_sum, random_toy_tsg, violations


class TestToPe0:
    def test_fams_gets_slack_column(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        pe0 = to_pe0(game)
        assert pe0.game.n == game.n + 1
        assert pe0.source_cols == game.n
        assert len(pe0.equality_partition) == 3
        for con in pe0.equality_partition:
            assert con.lower == con.upper == 1
        labels = {c.name() for c in pe0.game.constraints if c not in pe0.equality_partition}
        assert labels == {"flight f1", "flight f2"}

    def test_tsg_is_already_partitioned(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        assert pe0.game is game
        assert len(pe0.equality_partition) == 3
        others = [c for c in pe0.game.constraints if c not in pe0.equality_partition]
        assert len(others) == 2
        assert all(c.lower == 0 for c in others)

    def test_pe0_native_game_unchanged(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        again = to_pe0(pe0.game)
        assert again.game is pe0.game
        assert again.equality_partition == pe0.equality_partition

    def test_overlapping_equalities_rejected(self):
        c1 = AssignmentConstraint([(0, 0), (0, 1)], 1, 1, label="left")
        c2 = AssignmentConstraint([(0, 1)], 1, 1, label="right")
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        game = AraGame(1, 2, (c1, c2), (t,), validate_weights=False)
        with pytest.raises(Pe0StructureError, match="overlap"):
            to_pe0(game)

    def test_gap_in_equalities_rejected(self):
        c1 = AssignmentConstraint([(0, 0)], 1, 1, label="left")
        t = Target("t", [(0, 0)], [1.0], 0.0, 0.0)
        game = AraGame(1, 2, (c1,), (t,), validate_weights=False)
        with pytest.raises(Pe0StructureError, match="cover"):
            to_pe0(game)

    def test_budget_without_unit_coefficients_rejected(self):
        # as the unit equality x00 + x01 + s = 2 it would admit x = [1, 1]
        double = AssignmentConstraint([(0, 0), (0, 1)], 0, 2, label="double", coeffs=[2, 2])
        t = Target("t", [(0, 0)], [1.0], 0.0, -1.0)
        with pytest.raises(Pe0StructureError, match="row 0 has no full-row budget"):
            to_pe0(AraGame(1, 2, (double,), (t,)))

    def test_budget_is_the_first_unit_full_row_constraint(self):
        double = AssignmentConstraint([(0, 0), (0, 1)], 0, 2, label="double", coeffs=[2, 2])
        cap = AssignmentConstraint([(0, 0), (0, 1)], 0, 1, label="cap")
        budget = AssignmentConstraint([(0, 0), (0, 1)], 0, 1, label="budget")
        t = Target("t", [(0, 0)], [1.0], 0.0, -1.0)
        pe0 = to_pe0(AraGame(1, 2, (double, cap, budget), (t,)))
        assert [c.name() for c in pe0.game.constraints] == ["cap (with slack)", "double", "budget"]


def comb_sample(x, con, rng):
    """Comb rounding of one equality group, cell by cell: the reference that
    ``_CombSampler`` must match.  Fractional parts (those within 1e-7 of an
    integer count as integral) are packed in ascending cell order into unit
    buckets; one uniform marks the same offset in every bucket, and the cell
    whose fraction covers a mark is rounded up."""
    cells = sorted(map(tuple, con.cells.tolist()))
    vals = np.array([x[c] for c in cells])
    floors = np.floor(vals)
    frac = vals - floors
    snap = frac > 1.0 - 1e-7
    floors[snap] += 1.0
    frac[snap] = 0.0
    frac[frac < 1e-7] = 0.0
    buckets = int(round(frac.sum()))
    out = floors.astype(np.int64)
    if buckets:
        cum = np.cumsum(frac)
        marks = np.minimum(np.arange(buckets) + rng.random(), cum[-1] - 1e-12)
        hits = np.searchsorted(cum, marks, side="right")
        np.add.at(out, np.minimum(hits, len(out) - 1), 1)
    return dict(zip(cells, out.tolist()))


def one_group_sampler(x, con=None):
    """``_CombSampler`` over a single equality group: ``con``, or the one
    row of ``x`` with its rounded sum."""
    if con is None:
        total = int(round(x.sum()))
        con = AssignmentConstraint([(0, j) for j in range(x.shape[1])], total, total)
    game = AraGame(*x.shape, (con,), (), validate_weights=False)
    return _CombSampler(Pe0Form(game, (con,), game), x)


class TestCombSample:
    def test_half_up_half_down(self):
        con = AssignmentConstraint([(0, 0), (1, 0)], 2, 2, label="col")
        sampler = one_group_sampler(np.array([[0.5], [1.5]]), con)
        counts = {(0, 2): 0, (1, 1): 0}
        rng = np.random.default_rng(0)
        for _ in range(4000):
            out = sampler.sample(rng)
            key = (out[0, 0], out[1, 0])
            counts[key] += 1
            assert sum(key) == 2
        assert counts[(0, 2)] == pytest.approx(2000, abs=150)
        assert counts[(1, 1)] == pytest.approx(2000, abs=150)

    def test_integral_column_unchanged(self):
        con = AssignmentConstraint([(0, 0), (1, 0)], 2, 2)
        out = one_group_sampler(np.array([[0.0], [2.0]]), con).sample(np.random.default_rng(1))
        assert out.tolist() == [[0], [2]]

    def test_three_cell_distribution(self):
        vals = np.array([0.3, 0.3, 0.4])
        sampler = one_group_sampler(vals[None, :])
        rng = np.random.default_rng(7)
        n = 100_000
        totals = np.zeros(3)
        for _ in range(n):
            out = sampler.sample(rng)[0]
            assert out.sum() == 1
            totals += out
        means = totals / n
        assert np.all(np.abs(means - vals) < 0.01)

    def test_non_integral_mass_is_an_error(self):
        with pytest.raises(GameError, match="not integral"):
            one_group_sampler(np.array([[0.4, 0.3]]))

    def test_rounds_every_cell_up_or_down(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            raw = rng.random(5) * 3
            raw[-1] = np.ceil(raw[:-1].sum() + raw[-1]) - raw[:-1].sum()
            out = one_group_sampler(raw[None, :]).sample(rng)[0]
            assert np.all((out == np.floor(raw + 1e-9)) | (out == np.ceil(raw - 1e-9)))
            assert out.sum() == pytest.approx(raw.sum())


def random_partition(rng):
    """A PE0 form whose equalities are a random partition of a random
    matrix, and a marginal with an integral sum on every group.  Some groups
    are all integral (no draw), some hold cells within 1e-7 of an integer."""
    k, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    order = [(i, j) for i in range(k) for j in range(n)]
    order = [order[p] for p in rng.permutation(len(order))]
    x = np.zeros((k, n))
    groups = []
    while order:
        size = int(rng.integers(1, 6))
        cells, order = order[:size], order[size:]
        vals = rng.random(len(cells)) * 3
        kind = rng.integers(3)
        if kind == 0:
            vals = np.floor(vals)
        elif kind == 1:
            near = rng.random(len(vals)) < 0.5
            jitter = rng.choice([-5e-8, 5e-8], int(near.sum()))
            vals[near] = np.maximum(np.round(vals[near]) + jitter, 0.0)
        vals[-1] = np.ceil(vals.sum()) - vals[:-1].sum()
        for cell, v in zip(cells, vals):
            x[cell] = v
        total = int(np.round(vals.sum()))
        groups.append(AssignmentConstraint(cells, total, total,
                                           label=f"group {len(groups)}"))
    game = AraGame(k, n, tuple(groups), (), validate_weights=False)
    return Pe0Form(game, tuple(groups), game), x


class TestCombSampler:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_group_comb_sample(self, seed):
        pe0, x = random_partition(np.random.default_rng(300 + seed))
        sampler = _CombSampler(pe0, x)
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            want = np.zeros(x.shape, dtype=np.int64)
            for con in pe0.equality_partition:
                for cell, v in comb_sample(x, con, looped).items():
                    want[cell] = v
            got = sampler.sample(batched)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        assert batched.random() == looped.random()  # same number of draws

    def test_non_integral_mass_fails_at_construction(self):
        con = AssignmentConstraint([(0, 0), (0, 1)], 1, 1, label="row")
        game = AraGame(1, 2, (con,), (), validate_weights=False)
        pe0 = Pe0Form(game, (con,), game)
        with pytest.raises(GameError, match="not integral"):
            _CombSampler(pe0, np.array([[0.4, 0.3]]))

    def test_first_non_integral_group_is_named(self):
        # groups of 2, 3 and 1 cells; the second and third have no integral mass
        groups = (AssignmentConstraint([(0, 0), (1, 2)], 1, 1, label="a"),
                  AssignmentConstraint([(1, 0), (1, 1), (0, 2)], 1, 1, label="b"),
                  AssignmentConstraint([(0, 1)], 1, 1, label="c"))
        game = AraGame(2, 3, groups, (), validate_weights=False)
        pe0 = Pe0Form(game, groups, game)
        x = np.array([[0.5, 0.5, 0.25], [0.25, 0.25, 0.5]])
        with pytest.raises(GameError, match=r"fractional mass 0\.75 is not integral"):
            _CombSampler(pe0, x)


class TestSeededOutputs:
    """Figures recorded with the per-group sampler before comb rounding was
    batched: the RNG draw order, and so every seeded sample, is unchanged.
    The FAMS value moved by 3 ulps, from -3.7450000000000006, when target
    entries went from set iteration order to ascending cell order: the
    coverage sums add the same terms in another order."""

    @staticmethod
    def run(inst, fixer, encode, m=200):
        pe0 = to_pe0(encode(inst))
        ms = solve_marginal(pe0.game)
        res = estimate_mixed(ms, pe0, fixer, np.random.default_rng(11), m=m)
        stacked = np.stack([s.values for s in res.estimate.samples]).astype(np.int64)
        return res.value, hashlib.sha256(stacked.tobytes()).hexdigest()

    def test_tsg(self):
        inst = gen_tsg(GenConfig(seed=3, family="tsg", flights=10))
        value, digest = self.run(inst, TsgFixer(inst), encode_tsg)
        assert value == -3.4832501214863796
        assert digest == "7da0d4c734e12ccf6238c2c34ae1a6cffcc9c2c3f94a327879b18b9488b5cace"

    def test_fams(self):
        inst = gen_fams(GenConfig(seed=0, family="fams", flights=12, schedules=24,
                                  targets_per_schedule=2, resources=4))
        value, digest = self.run(inst, FamsFixer(inst), encode_fams)
        assert value == -3.744999999999999
        assert digest == "7ba8469dc68ada78abcaa0e380e6dec75305750af782c611fae65562bf23cdec"

    def test_fams_at_benchmark_scale(self):
        # the fams-rand shape: 100 flights, 200 schedules of 3, 20 marshals,
        # 300 samples; recorded before the schedule repair was rebuilt
        inst = gen_fams(GenConfig(seed=0, family="fams", flights=100, schedules=200,
                                  targets_per_schedule=3, resources=20))
        value, digest = self.run(inst, FamsFixer(inst), encode_fams, m=300)
        assert value == -6.01
        assert digest == "d3f73cae0e5fde30e2164d54d5a4eb7e128842b8ca0d8da7f3fafe22420b4205"

    def test_fams_at_benchmark_scale_stores_int8_samples(self):
        # the estimate of test_fams_at_benchmark_scale: int64 samples held
        # 300 x 20 x 200 x 8 B = 9.6 MB
        inst = gen_fams(GenConfig(seed=0, family="fams", flights=100, schedules=200,
                                  targets_per_schedule=3, resources=20))
        pe0 = to_pe0(encode_fams(inst))
        res = estimate_mixed(solve_marginal(pe0.game), pe0, FamsFixer(inst),
                             np.random.default_rng(11), m=300)
        samples = res.estimate.samples
        assert {s.values.dtype for s in samples} == {np.dtype(np.int8)}
        assert sum(s.values.nbytes for s in samples) <= 1_200_000


class TestStoredDtype:
    @staticmethod
    def estimate(cells):
        """Two samples of a one-row game whose equalities pin each cell to
        its value in ``cells``, repaired by fixers that change nothing."""
        n = len(cells)
        pins = tuple(AssignmentConstraint([(0, j)], v, v, label=f"pin {j}")
                     for j, v in enumerate(cells))
        targets = tuple(Target(f"t{j}", [(0, j)], [1.0 / v], -1.0, -2.0)
                        for j, v in enumerate(cells))
        game = AraGame(1, n, pins, targets)
        pe0 = to_pe0(game)

        class Keep:
            def fix_inequalities(self, x, pe0, rng):
                return x

            def fix_equalities(self, x, pe0, rng):
                return x

        ms = solve_marginal(pe0.game)
        return estimate_mixed(ms, pe0, Keep(), np.random.default_rng(0), m=2)

    @pytest.mark.parametrize("cells, dtype", [([3, 128], np.int16), ([3, 40_000], np.int32),
                                              ([3, 127], np.int8)])
    def test_wide_cells_keep_their_values(self, cells, dtype):
        res = self.estimate(cells)
        for s in res.estimate.samples:
            assert s.values.dtype == dtype
            assert s.values.tolist() == [cells]
        assert res.estimate.mean.tolist() == [cells]

    @pytest.mark.parametrize("inst", [
        *(pytest.param(random_toy_tsg(np.random.default_rng(780 + seed)), id=f"toy{seed}")
          for seed in range(4)),
        pytest.param(gen_tsg(GenConfig(seed=4, family="tsg", flights=40, risk_levels=2,
                                       resource_types=3, team_types=3)), id="tsg-rand"),
    ])
    def test_every_tsg_sample_is_int8(self, inst):
        pe0 = to_pe0(encode_tsg(inst))
        res = estimate_mixed(solve_marginal(pe0.game), pe0, TsgFixer(inst),
                             np.random.default_rng(0), m=50)
        assert {s.values.dtype for s in res.estimate.samples} == {np.dtype(np.int8)}


class TestSampleBudget:
    """``estimate_mixed`` refuses, before its first draw, an m whose samples
    would keep more than ``MAX_SAMPLE_BYTES``: one byte per cell plus each
    sample's object overhead."""

    @staticmethod
    def setup(fig1c_tsg):
        pe0 = to_pe0(encode_tsg(fig1c_tsg))
        probe = PureStrategy(np.zeros((0, 0), dtype=np.int8))
        per_sample = (pe0.source_game.k * pe0.source_game.n + sys.getsizeof(probe)
                      + sys.getsizeof(probe.values))
        return pe0, solve_marginal(pe0.game), TsgFixer(fig1c_tsg), per_sample

    def test_the_refusal_comes_before_any_draw(self, fig1c_tsg, monkeypatch):
        pe0, ms, fixer, _ = self.setup(fig1c_tsg)

        def no_sampler(*args):
            raise AssertionError("the sampler was built")

        monkeypatch.setattr(sampling, "_CombSampler", no_sampler)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(GameError, match="GiB sample limit"):
            estimate_mixed(ms, pe0, fixer, rng, m=10 ** 10)
        assert rng.bit_generator.state == state

    def test_the_limit_counts_cells_and_overhead(self, fig1c_tsg, monkeypatch):
        pe0, ms, fixer, per_sample = self.setup(fig1c_tsg)
        monkeypatch.setattr(sampling, "MAX_SAMPLE_BYTES", 10 * per_sample)
        assert len(estimate_mixed(ms, pe0, fixer, np.random.default_rng(0),
                                  m=10).estimate.samples) == 10
        with pytest.raises(GameError, match="11 samples of 3 x 3 cells"):
            estimate_mixed(ms, pe0, fixer, np.random.default_rng(0), m=11)


class TestSamplePure:
    def test_fig1b_sampling_is_valid(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        res = estimate_mixed(ms, pe0, FamsFixer(fig1b_fams), np.random.default_rng(42), m=300)
        for p in res.estimate.samples:
            assert violations(game, p) == []

    def test_fig1c_sampling_is_valid(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        fixer = TsgFixer(fig1c_tsg)
        res = estimate_mixed(ms, pe0, fixer, np.random.default_rng(43), m=300)
        for p in res.estimate.samples:
            assert violations(game, p) == []

    def test_integral_marginal_needs_no_fixing(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        integral = np.array([[2, 3, 0],
                             [0, 0, 2],
                             [0, 0, 13]], dtype=float)
        ms = MarginalSolution(MarginalStrategy(integral), upper_bound=0.0)

        class SpyFixer:
            calls = 0

            def fix_inequalities(self, x, pe0, rng):
                SpyFixer.calls += 1
                return x

            def fix_equalities(self, x, pe0, rng):
                return x

        res = estimate_mixed(ms, pe0, SpyFixer(), np.random.default_rng(0), m=1)
        assert np.array_equal(res.estimate.samples[0].values, integral.astype(np.int64))

    def test_retry_cap_failure_counts(self, fig1c_tsg, monkeypatch):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)

        class AlwaysFails:
            def fix_inequalities(self, x, pe0, rng):
                return x

            def fix_equalities(self, x, pe0, rng):
                raise EqualityFixFailed("nope")

        monkeypatch.setattr(sampling, "RETRY_CAP", 7)
        with pytest.raises(SamplingFailure, match="failed 8 times; retry cap 7"):
            estimate_mixed(ms, pe0, AlwaysFails(), np.random.default_rng(0), m=1)

    def test_fixer_direction_enforced(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)

        class Increases:
            def fix_inequalities(self, x, pe0, rng):
                return x + 1

            def fix_equalities(self, x, pe0, rng):
                return x

        with pytest.raises(GameError, match="increased"):
            estimate_mixed(ms, pe0, Increases(), np.random.default_rng(0), m=1)

    def test_invalid_sample_is_named_with_its_sums(self, fig1b_fams):
        # the equality repair only raises cells, as it may, but on the third
        # of five samples it puts marshal 0 twice more on schedule s1
        game = encode_fams(fig1b_fams)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        repaired = []

        class BreaksThird(FamsFixer):
            def fix_equalities(self, x, pe0, rng):
                out = super().fix_equalities(x, pe0, rng)
                if len(repaired) == 2:
                    out[0, 0] += 2
                repaired.append(out)  # source width: the sampler dropped the slack
                return out

        with pytest.raises(GameError, match="invalid strategy") as err:
            estimate_mixed(ms, pe0, BreaksThird(fig1b_fams), np.random.default_rng(4), m=5)
        bad = repaired[2]
        expected = [f"{con.name()}: sum {constraint_sum(con, bad)} outside [{con.lower}, {con.upper}]"
                    for con in game.constraints
                    if not con.lower <= constraint_sum(con, bad) <= con.upper]
        assert "marshal 0: sum" in str(err.value)
        assert str(err.value) == "fixers produced an invalid strategy: " + "; ".join(expected)


class TestMarginalPreservation:
    def test_comb_means_match_marginal(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        x = ms.x_m.values
        sampler = _CombSampler(pe0, x)
        rng = np.random.default_rng(11)
        n = 20_000
        acc = np.zeros_like(x)
        for _ in range(n):
            acc += sampler.sample(rng)
        tol = 3 * np.sqrt(0.25 / n)
        assert np.max(np.abs(acc / n - x)) < tol

    def test_equalities_hold_every_sample(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        sampler = _CombSampler(pe0, ms.x_m.values)
        rng = np.random.default_rng(12)
        for _ in range(500):
            s = sampler.sample(rng)
            for con in pe0.equality_partition:
                assert constraint_sum(con, s) == con.lower


class TestEstimateMixed:
    def test_single_sample_estimate(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        res = estimate_mixed(ms, pe0, TsgFixer(fig1c_tsg), np.random.default_rng(5), m=1)
        assert len(res.estimate.samples) == 1
        assert res.value == pytest.approx(game_value(game, res.estimate.samples[0]))

    def test_dominated_by_upper_bound(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        res = estimate_mixed(ms, pe0, TsgFixer(fig1c_tsg), np.random.default_rng(6), m=1000)
        assert res.value <= ms.upper_bound + 1e-6

    def test_two_seeds_agree_roughly(self, fig1c_tsg):
        game = encode_tsg(fig1c_tsg)
        pe0 = to_pe0(game)
        ms = solve_marginal(pe0.game)
        fixer = TsgFixer(fig1c_tsg)
        a = estimate_mixed(ms, pe0, fixer, np.random.default_rng(1), m=1000).value
        b = estimate_mixed(ms, pe0, fixer, np.random.default_rng(2), m=1000).value
        assert abs(a - b) / abs(a) < 0.05

    def test_source_game_marginal_is_refused(self, fig1b_fams):
        # the FAMS form adds a slack column, so the source marginal is a column short
        game = encode_fams(fig1b_fams)
        pe0 = to_pe0(game)
        ms = solve_marginal(game)
        with pytest.raises(GameError, match="marginal shape"):
            estimate_mixed(ms, pe0, FamsFixer(fig1b_fams), np.random.default_rng(0), m=1)
