import hashlib
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from ara import exact as exact_mod
from ara import fams
from ara.core import AraGame, CompiledGame, GameError, game_value
from ara.exact import enumerate_pure, exact_maximin
from ara.fams import (
    DbrNodeCapError,
    FamsFixer,
    FamsInstance,
    FamsTables,
    FlightSpec,
    Schedule,
    encode_fams,
    fams_dbr,
)
from ara.generators import GenConfig, gen_fams
from ara.jsonio import fams_from_json, fams_to_json
from ara.lp import solve_lp
from ara.marginal import solve_marginal
from ara.sampling import _CombSampler, estimate_mixed, to_pe0
from conftest import coverage, random_toy_fams, violations, with_random_forbidden


class TestEncode:
    def test_fig1b_shape(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        assert (game.k, game.n) == (3, 3)
        labels = [c.name() for c in game.constraints]
        assert sum(1 for l in labels if l.startswith("marshal")) == 3
        assert sum(1 for l in labels if l.startswith("flight")) == 2
        assert len(game.targets) == 2

    def test_single_singleton_schedule_coverage_is_binary(self):
        inst = FamsInstance(1, (Schedule("s0", frozenset({"f0"})),),
                            (FlightSpec("f0", -1.0, -4.0),))
        game = encode_fams(inst)
        for s in enumerate_pure(game):
            assert coverage(game, s, "f0") in (0.0, 1.0)

    def test_flight_without_schedule_gets_empty_target(self):
        inst = FamsInstance(1, (Schedule("s0", frozenset({"f0"})),),
                            (FlightSpec("f0", -1.0, -4.0), FlightSpec("ghost", -1.0, -2.0)))
        game = encode_fams(inst)
        t = game.target("ghost")
        assert not len(t.cells)
        assert coverage(game, np.ones((1, 1)), "ghost") == 0.0

    def test_forbidden_pair_pins_cell(self):
        inst = FamsInstance(2, (Schedule("s0", frozenset({"f0"})),),
                            (FlightSpec("f0", -1.0, -4.0),), frozenset({(1, "s0")}))
        game = encode_fams(inst)
        p = np.zeros((2, 1), dtype=np.int64)
        p[1, 0] = 1
        assert any("forbidden" in v.constraint for v in violations(game, p))

    @pytest.mark.parametrize("seed", range(5))
    def test_enumerated_coverage_below_one(self, seed):
        inst = random_toy_fams(np.random.default_rng(300 + seed))
        game = encode_fams(inst)
        for s in enumerate_pure(game):
            for f in inst.flights:
                assert coverage(game, s, f.id) <= 1.0


def _pe0_for(inst):
    game = encode_fams(inst)
    return game, to_pe0(game)


def loop_fix_inequalities(x, game, rng):
    """Column-by-column reference for FamsFixer.fix_inequalities on a
    marshals x schedules matrix of ``game``."""
    ids = [t.id for t in game.targets]
    flight_cols = [sorted({j for _, j in t.cells.tolist()}) for t in game.targets]
    x = x.copy()
    while True:
        col_tot = x.sum(axis=0)
        cov = [sum(col_tot[j] for j in cols) for cols in flight_cols]
        violated = [fi for fi, c in enumerate(cov) if c > 1]
        if not violated:
            return x
        best_col, best_count = -1, 0
        for j in np.flatnonzero(col_tot):
            hit = [fi for fi, cols in enumerate(flight_cols) if j in cols]
            n_violated = sum(1 for fi in hit if cov[fi] > 1)
            if all(cov[fi] != 1 for fi in hit) and n_violated > best_count:
                best_col, best_count = j, n_violated
        if best_col < 0:
            worst = min(violated, key=lambda fi: (-cov[fi], ids[fi]))
            options = [j for j in flight_cols[worst] if col_tot[j] > 0]
            best_col = options[rng.integers(len(options))]
        x[np.flatnonzero(x[:, best_col])[0], best_col] -= 1


class TestInstanceIndexes:
    """``FamsTables``, built from the instance, against the encoded game:
    its target cells (flight t is target t) and its forbidden-pair
    constraints."""

    @pytest.mark.parametrize("inst", [
        *(pytest.param(random_toy_fams(np.random.default_rng(720 + seed)), id=f"toy{seed}")
          for seed in range(10)),
        *(pytest.param(with_random_forbidden(random_toy_fams(np.random.default_rng(740 + seed)),
                                             np.random.default_rng(seed)), id=f"forbidden{seed}")
          for seed in range(5)),
        pytest.param(gen_fams(GenConfig(seed=0, family="fams", flights=100, schedules=200,
                                        targets_per_schedule=3, resources=20)), id="fams-rand"),
    ])
    def test_indexes_match_the_target_cells(self, inst):
        game = encode_fams(inst)
        incidence = np.zeros((len(game.targets), game.n), dtype=np.int64)
        for t, target in enumerate(game.targets):
            for _, j in target.cells.tolist():
                incidence[t, j] = 1
        tables = FamsTables(inst)
        assert (tables.k, tables.n) == (game.k, game.n)
        assert tables.flights_of == tuple(tuple(np.flatnonzero(col).tolist())
                                          for col in incidence.T)
        assert tables.masks == tuple(sum(1 << t for t in np.flatnonzero(col).tolist())
                                     for col in incidence.T)
        ids = [target.id for target in game.targets]
        assert tables.rank == tuple(sorted(ids).index(tid) for tid in ids)
        expected = np.nonzero(incidence)
        assert np.array_equal(tables.flight_of, expected[0])
        assert np.array_equal(tables.col_of, expected[1])
        # a marshal may fly a schedule unless a constraint pins their cell to zero
        pinned = np.zeros((game.k, game.n), dtype=bool)
        for con in game.constraints:
            if con.upper == 0:
                pinned[tuple(con.cells.T)] = True
        assert tables.allowed == tuple(
            tuple(np.flatnonzero(~col).tolist()) if col.any() else None for col in pinned.T)
        assert [s.id for s in inst.schedules] == sorted(tables.col, key=tables.col.get)


class TestInstanceTables:
    """Each instance builds its ``FamsTables`` once (``FamsInstance.tables``)
    and every reader shares them.  Each test builds its own instance, since
    the cache of a shared one would hide a rebuild."""

    def test_encoding_is_a_plain_game(self):
        inst = random_toy_fams(np.random.default_rng(760))
        assert type(encode_fams(inst)) is AraGame

    def test_built_tables_leave_equality_hash_and_json_alone(self):
        inst = random_toy_fams(np.random.default_rng(761))
        assert inst.tables is inst.tables
        parsed = fams_from_json(json.loads(json.dumps(fams_to_json(inst))))
        assert "tables" not in vars(parsed)  # nothing read it yet
        assert parsed == inst and hash(parsed) == hash(inst)
        assert fams_to_json(parsed) == fams_to_json(inst)
        assert pickle.loads(pickle.dumps(inst)) == inst

    def test_the_fixer_reads_the_instance_tables(self):
        inst = random_toy_fams(np.random.default_rng(762))
        assert FamsFixer(inst).tables is inst.tables

    def test_shared_tables_are_read_only(self):
        tables = with_random_forbidden(random_toy_fams(np.random.default_rng(763)),
                                       np.random.default_rng(0)).tables
        for arr in (tables.flight_of, tables.col_of):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        for held in (tables.masks, tables.flights_of, tables.allowed, tables.rank):
            assert isinstance(held, tuple)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_strategy_of_a_toy_is_int8(self, seed):
        rng = np.random.default_rng(770 + seed)
        inst = random_toy_fams(rng)
        game = encode_fams(inst)
        pe0 = to_pe0(game)
        est = estimate_mixed(solve_marginal(pe0.game), pe0, FamsFixer(inst), rng, m=20)
        strategies = [*enumerate_pure(game), *est.estimate.samples, *_cg(inst).strategies,
                      fams_dbr(inst.tables, rng.random(game.n), np.inf)]
        assert {s.values.dtype for s in strategies} == {np.dtype(np.int8)}


def _seat(k, n, cols):
    """A marshals x schedules matrix with marshal i on schedule cols[i],
    or on none where cols[i] == n: the slack column the sampler drops."""
    x = np.zeros((k, n), dtype=np.int64)
    seated = cols < n
    x[np.flatnonzero(seated), cols[seated]] = 1
    return x


class TestFixer:
    """The fixers repair matrices of the source game, marshals x schedules,
    as ``_sample_with_stats`` hands them over with the slack column dropped."""

    def test_no_violation_is_identity(self, fig1b_fams):
        game, pe0 = _pe0_for(fig1b_fams)
        x = np.zeros((3, 3), dtype=np.int64)
        x[0, 0] = 1
        out = FamsFixer(fig1b_fams).fix_inequalities(x, pe0, np.random.default_rng(0))
        assert out is x  # nothing to repair, so nothing is copied
        assert FamsFixer(fig1b_fams).fix_equalities(x, pe0, np.random.default_rng(0)) is x

    def test_pe0_width_matrix_is_refused(self, fig1b_fams):
        _, pe0 = _pe0_for(fig1b_fams)
        x = np.zeros((3, 4), dtype=np.int64)
        x[:, 3] = 1
        with pytest.raises(GameError, match=r"sample shape \(3, 4\) is not 3 marshals x 3 "):
            FamsFixer(fig1b_fams).fix_inequalities(x, pe0, np.random.default_rng(0))

    def test_two_schedules_on_one_flight(self):
        # schedules s0 and s1 both fly f0; both allocated -> one gets zeroed
        inst = FamsInstance(
            2,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f0"}))),
            (FlightSpec("f0", -1.0, -4.0),))
        game, pe0 = _pe0_for(inst)
        x = np.eye(2, dtype=np.int64)
        out = FamsFixer(inst).fix_inequalities(x, pe0, np.random.default_rng(1))
        assert coverage(game, out, "f0") == 1.0

    def test_priority_prefers_pure_violators(self):
        # s0 holds two violated flights and nothing satisfied; s1 holds one
        # violated and one satisfied flight, so s0 must be zeroed first
        inst = FamsInstance(
            3,
            (Schedule("s0", frozenset({"f0", "f1"})),
             Schedule("s1", frozenset({"f0", "f2"})),
             Schedule("s2", frozenset({"f1", "f2"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0),
             FlightSpec("f2", -1.0, -4.0)))
        game, pe0 = _pe0_for(inst)
        x = np.eye(3, dtype=np.int64)  # marshal i on s_i; s0: f0, f1; s1: f0, f2; s2: f1, f2
        # f0, f1, f2 all have coverage 2: every schedule contains only
        # violated flights; s0 ties with s1 and s2 at two violated flights,
        # lowest schedule id wins, then the rest settle without random picks
        out = FamsFixer(inst).fix_inequalities(x, pe0, np.random.default_rng(2))
        assert out[:, 0].sum() == 0
        assert violations(game, out) == []
        for f in ("f0", "f1", "f2"):
            assert coverage(game, out, f) <= 1.0

    def test_random_drop_when_no_schedule_is_clean(self):
        # s0 and s1 both fly the violated f0, and each also flies a flight
        # (f1, f2) at coverage 1, so the fixer must drop one of them at random
        inst = FamsInstance(
            2,
            (Schedule("s0", frozenset({"f0", "f1"})), Schedule("s1", frozenset({"f0", "f2"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0),
             FlightSpec("f2", -1.0, -4.0)))
        game, pe0 = _pe0_for(inst)
        x = np.eye(2, dtype=np.int64)
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        out = FamsFixer(inst).fix_inequalities(x, pe0, rng)
        dropped = int(twin.integers(2))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert out.sum(axis=0).tolist() == [int(dropped != 0), int(dropped != 1)]
        assert coverage(game, out, "f0") == 1.0

    def test_random_drops_go_to_the_lowest_flight_id_first(self):
        # "fb" (on s0, s1) and "fa" (on s2, s3, s4) are over-covered and every
        # schedule also flies a flight at coverage 1, so each drop is random.
        # After the first drop both sit at coverage 2, and "fa" sorts first
        # although listed second
        groups = {"fb": (0, 1), "fa": (2, 3, 4)}
        inst = FamsInstance(
            5,
            tuple(Schedule(f"s{j}", frozenset({f, f"x{j}"}))
                  for f, cols in groups.items() for j in cols),
            tuple(FlightSpec(f, -1.0, -4.0) for f in (*groups, *(f"x{j}" for j in range(5)))))
        _, pe0 = _pe0_for(inst)
        x = np.eye(5, dtype=np.int64)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        out = FamsFixer(inst).fix_inequalities(x, pe0, rng)
        expected = x.copy()
        for f in ("fa", "fa", "fb"):
            live = [j for j in groups[f] if expected[j, j]]
            j = live[twin.integers(len(live))]
            expected[j, j] = 0
        assert np.array_equal(out, expected)
        assert rng.bit_generator.state == twin.bit_generator.state

    @staticmethod
    def assert_matches_loop_reference(fixer, pe0, xs, rng):
        """The fixer against the loop on each matrix, with the same draws:
        the generator state after every call pins their number and order."""
        for x in xs:
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            out = fixer.fix_inequalities(x, pe0, rng)
            assert np.array_equal(out, loop_fix_inequalities(x, pe0.source_game, twin))
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(700 + seed)
        inst = random_toy_fams(rng)
        game, pe0 = _pe0_for(inst)
        k, n = inst.num_marshals, len(inst.schedules)
        for _ in range(10):
            x = _seat(k, n, rng.integers(0, n + 1, size=k))
            state = rng.bit_generator.state
            out = FamsFixer(inst).fix_inequalities(x, pe0, rng)
            twin = np.random.default_rng()
            twin.bit_generator.state = state
            assert np.array_equal(out, loop_fix_inequalities(x, game, twin))
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_reference_with_forbidden_pairs(self, seed):
        rng = np.random.default_rng(760 + seed)
        inst = with_random_forbidden(random_toy_fams(rng), rng)
        _, pe0 = _pe0_for(inst)
        k, n = inst.num_marshals, len(inst.schedules)
        xs = [_seat(k, n, rng.integers(0, n + 1, size=k)) for _ in range(10)]
        self.assert_matches_loop_reference(FamsFixer(inst), pe0, xs, rng)

    def test_matches_loop_reference_at_benchmark_shape(self):
        # comb samples of a seeded 40-flight game, 80 schedules of 3 flights
        inst = gen_fams(GenConfig(seed=3, family="fams", flights=40, schedules=80,
                                  targets_per_schedule=3, resources=10))
        _, pe0 = _pe0_for(inst)
        sampler = _CombSampler(pe0, solve_marginal(pe0.game).x_m.values)

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def integers(self, high):
                self.draws += 1
                return self.rng.integers(high)

        rng = np.random.default_rng(12)
        decrements = draws = 0
        for _ in range(200):
            x = sampler.sample(rng)[:, :pe0.source_cols]
            state = rng.bit_generator.state
            counting = CountingRng(rng)
            out = FamsFixer(inst).fix_inequalities(x, pe0, counting)
            twin = np.random.default_rng()
            twin.bit_generator.state = state
            assert np.array_equal(out, loop_fix_inequalities(x, pe0.source_game, twin))
            assert rng.bit_generator.state == twin.bit_generator.state
            decrements += int(x.sum() - out.sum())
            draws += counting.draws
        # both the random drop and the clean pick ran
        assert 0 < draws < decrements

    def test_matches_loop_reference_at_fams_rand_scale(self):
        # comb samples of the fams-rand shape: 100 flights, 200 schedules of
        # 3 flights, 20 marshals
        inst = gen_fams(GenConfig(seed=0, family="fams", flights=100, schedules=200,
                                  targets_per_schedule=3, resources=20))
        _, pe0 = _pe0_for(inst)
        sampler = _CombSampler(pe0, solve_marginal(pe0.game).x_m.values)
        rng = np.random.default_rng(21)
        xs = [sampler.sample(rng)[:, :pe0.source_cols] for _ in range(40)]
        fixer = FamsFixer(inst)
        self.assert_matches_loop_reference(fixer, pe0, xs, rng)
        # every sample needed repair
        assert all(fixer.fix_inequalities(x, pe0, rng).sum() < x.sum() for x in xs)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_reference_with_stacked_marshals(self, seed):
        # hand-made matrices: several marshals on one schedule, and cells
        # holding 2 units, so a schedule alone can cover its flights twice
        rng = np.random.default_rng(780 + seed)
        inst = random_toy_fams(rng)
        _, pe0 = _pe0_for(inst)
        k, n = inst.num_marshals, len(inst.schedules)
        xs = []
        for _ in range(10):
            x = np.zeros((k, n), dtype=np.int64)
            x[:, rng.integers(n)] = 1  # every marshal on one schedule
            x[rng.integers(k), rng.integers(n)] += 1
            x[rng.integers(k), rng.integers(n)] = 2
            xs.append(x)
        self.assert_matches_loop_reference(FamsFixer(inst), pe0, xs, rng)

    def test_one_schedule_with_two_marshals_loses_the_lowest_row(self):
        # s0 alone covers f0 twice; it is blocked by nothing, so the clean
        # pick takes its lowest marshal off without a draw
        inst = FamsInstance(
            3,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)))
        _, pe0 = _pe0_for(inst)
        x = np.array([[0, 1], [1, 0], [1, 0]])
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        out = FamsFixer(inst).fix_inequalities(x, pe0, rng)
        assert out.tolist() == [[0, 1], [0, 0], [1, 0]]
        assert rng.bit_generator.state == state

    def test_freed_marshal_row_is_left_empty(self, fig1b_fams):
        game, pe0 = _pe0_for(fig1b_fams)
        x = np.zeros((3, 3), dtype=np.int64)
        x[0, 0] = 1  # s1 -> f1
        x[1, 1] = 1  # s2 -> f1, f2  (f1 now violated)
        fixer = FamsFixer(fig1b_fams)
        mid = fixer.fix_inequalities(x, pe0, np.random.default_rng(3))
        out = fixer.fix_equalities(mid, pe0, np.random.default_rng(3))
        assert out is mid
        # the repair worked on a copy, so ``x`` still seats both marshals
        freed = np.flatnonzero(x.sum(axis=1) > out.sum(axis=1))
        assert len(freed) == 1 and not out[freed[0]].any()
        assert violations(game, out) == []


class TestDbr:
    def test_weight_steering(self):
        inst = FamsInstance(
            1,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)))
        best = _dbr(inst, [1.0, 2.0])
        assert best.values[0, 1] == 1 and best.values[0, 0] == 0

    def test_fig1b_matches_enumeration(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        best = _dbr(fig1b_fams, np.ones(3))
        assert violations(game, best) == []
        brute = max(enumerate_pure(game), key=lambda s: s.values.sum())
        assert best.values.sum() == brute.values.sum()

    def test_forbidden_blocks_best(self):
        inst = FamsInstance(
            1,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)),
            frozenset({(0, "s1")}))
        best = _dbr(inst, [1.0, 2.0])
        assert best.values[0, 0] == 1 and best.values[0, 1] == 0

    def test_node_cap(self, fig1b_fams, monkeypatch):
        monkeypatch.setattr(fams, "NODE_CAP", 2)
        with pytest.raises(DbrNodeCapError, match="shrink"):
            _dbr(fig1b_fams, np.ones(3))

    def test_exploration_order_is_pinned(self):
        # weights from {1, 2, 3} tie often, so the packing returned shows the
        # visit order and tie rules; the digest was recorded with the
        # frozenset search, before flights became bitmasks
        digest = hashlib.sha256()
        for seed in range(12):
            rng = np.random.default_rng(900 + seed)
            inst = with_random_forbidden(random_toy_fams(rng), rng)
            for _ in range(4):
                w = rng.integers(1, 4, size=len(inst.schedules)).astype(float)
                digest.update(_dbr(inst, w).values.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "1c72d4044198728e020129e9760bc0492607e0d4f2fd1cf71ba21c4a5f6e5ccf")

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_random_weights(self, seed):
        rng = np.random.default_rng(400 + seed)
        inst = with_random_forbidden(random_toy_fams(rng), rng)
        game = encode_fams(inst)
        w = rng.uniform(0.1, 2.0, size=len(inst.schedules))
        best = _dbr(inst, w)
        assert violations(game, best) == []
        brute = max(float(s.values.sum(axis=0) @ w) for s in enumerate_pure(game))
        assert float(best.values.sum(axis=0) @ w) == pytest.approx(brute, abs=1e-9)

    def test_augmenting_path_places_both(self):
        # s0 (heavier) may go to marshals {0, 1}, s1 only to {0}: s0 first
        # takes marshal 0 and must move to marshal 1 so that s1 fits
        inst = FamsInstance(
            3,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)),
            frozenset({(2, "s0"), (1, "s1"), (2, "s1")}))
        best = _dbr(inst, [2.0, 1.0])
        assert best.values.tolist() == [[0, 1], [1, 0], [0, 0]]

    def test_backtracking_frees_the_matched_marshal(self):
        # s0 and s1 may only go to marshal 0; the branch with s0 is searched
        # first and loses, and s1 must then find marshal 0 free again
        inst = FamsInstance(
            2,
            (Schedule("s0", frozenset({"f0", "f1"})), Schedule("s1", frozenset({"f0"})),
             Schedule("s2", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)),
            frozenset({(1, "s0"), (1, "s1")}))
        best = _dbr(inst, [3.0, 2.0, 2.0])
        assert best.values.tolist() == [[0, 1, 0], [0, 0, 1]]

    def test_schedule_forbidden_to_everyone_is_never_picked(self):
        inst = FamsInstance(
            2,
            (Schedule("s0", frozenset({"f0"})), Schedule("s1", frozenset({"f1"}))),
            (FlightSpec("f0", -1.0, -4.0), FlightSpec("f1", -1.0, -4.0)),
            frozenset({(0, "s0"), (1, "s0")}))
        best = _dbr(inst, [5.0, 1.0])
        assert best.values[:, 0].sum() == 0 and best.values[:, 1].sum() == 1

    @pytest.mark.parametrize("w", [np.ones((3, 3)), np.ones(2), [1.0, -1.0, 1.0]])
    def test_bad_weights_raise(self, fig1b_fams, w):
        with pytest.raises(GameError, match="weight"):
            _dbr(fig1b_fams, w)


class TestColumnGeneration:
    @pytest.fixture(autouse=True)
    def tight_tolerance(self, monkeypatch):
        monkeypatch.setattr(fams, "CG_TOL", 1e-8)

    def test_fig1b_matches_exact(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        cg = _cg(fig1b_fams)
        exact = exact_maximin(game, enumerate_pure(game))
        assert cg.value == pytest.approx(exact.value, abs=1e-6)

    def test_uniform_coverage_on_disjoint_singletons(self):
        n = 4
        inst = FamsInstance(
            1,
            tuple(Schedule(f"s{j}", frozenset({f"f{j}"})) for j in range(n)),
            tuple(FlightSpec(f"f{j}", -1.0, -5.0) for j in range(n)))
        cg = _cg(inst)
        expected = (1 / n) * -1.0 + (1 - 1 / n) * -5.0
        assert cg.value == pytest.approx(expected, abs=1e-6)

    def test_implementable_case_collapses_to_marginal(self):
        # disjoint singleton schedules: bi-hierarchical, so CG = marginal LP
        inst = FamsInstance(
            2,
            tuple(Schedule(f"s{j}", frozenset({f"f{j}"})) for j in range(3)),
            tuple(FlightSpec(f"f{j}", -1.0, -float(3 + 2 * j)) for j in range(3)))
        cg = _cg(inst)
        ms = solve_marginal(encode_fams(inst))
        assert cg.value == pytest.approx(ms.upper_bound, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_cg_equals_enumeration_and_below_marginal(self, seed, monkeypatch):
        monkeypatch.setattr(exact_mod, "ENUM_CAP", 300_000)
        rng = np.random.default_rng(500 + seed)
        inst = random_toy_fams(rng)
        game = encode_fams(inst)
        cg = _cg(inst)
        exact = exact_maximin(game, enumerate_pure(game))
        ms = solve_marginal(game)
        assert cg.value == pytest.approx(exact.value, abs=1e-5)
        assert cg.value <= ms.upper_bound + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_cg_with_forbidden_pairs_equals_enumeration(self, seed, monkeypatch):
        monkeypatch.setattr(exact_mod, "ENUM_CAP", 300_000)
        rng = np.random.default_rng(700 + seed)
        inst = with_random_forbidden(random_toy_fams(rng), rng)
        assert inst.forbidden
        game = encode_fams(inst)
        cg = _cg(inst)
        exact = exact_maximin(game, enumerate_pure(game))
        ms = solve_marginal(game)
        assert cg.value == pytest.approx(exact.value, abs=1e-5)
        assert cg.value <= ms.upper_bound + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_master_is_the_exact_maximin_lp(self, seed):
        inst = random_toy_fams(np.random.default_rng(500 + seed))
        cg = _cg(inst)
        exact = exact_maximin(encode_fams(inst), cg.strategies)
        assert exact.value == cg.value
        assert np.array_equal(exact.weights, cg.weights)

    def test_warm_master_must_match_the_cold_solve(self, fig1b_fams, monkeypatch):
        _perturb_cold_solve(monkeypatch, lambda sol: replace(
            sol, objective_value=sol.objective_value + 1e-8))
        with pytest.raises(GameError, match="disagrees with the cold solve"):
            _cg(fig1b_fams)

    def test_cold_solve_must_be_optimal(self, fig1b_fams, monkeypatch):
        _perturb_cold_solve(monkeypatch, lambda sol: replace(sol, status="unbounded"))
        with pytest.raises(GameError, match="cold solve ended unbounded"):
            _cg(fig1b_fams)

    def test_solve_counts_coverage_once(self, fig1b_fams, monkeypatch):
        # the priced columns' coverages feed the cold re-solve directly
        def refused(*args, **kwargs):
            raise AssertionError("column generation took a second coverage count")

        monkeypatch.setattr(CompiledGame, "coverages", refused)
        monkeypatch.setattr(fams, "exact_maximin", refused, raising=False)
        cg = _cg(fig1b_fams)
        assert cg.iterations > 1
        assert len(cg.weights) == len(cg.strategies)

    def test_mixed_strategy_is_consistent(self, fig1b_fams):
        cg = _cg(fig1b_fams)
        game = encode_fams(fig1b_fams)
        mean = sum(w * s.values for w, s in zip(cg.weights, cg.strategies))
        assert game_value(game, mean) == pytest.approx(cg.value, abs=1e-6)


class TestSeededColumnGeneration:
    """Figures recorded with the marshal-by-marshal and the disjoint-packing
    searches, before they were folded into one: value, iterations, and a
    sha256 over the stacked columns and the weights."""

    @pytest.mark.parametrize("seed, value, iterations, digest", [
        (0, -1.6649953819765173, 77,
         "873d2967fb362d19ebbb5fcab0c0d9f116bd1e0d6e95e58444335b4141dd95b4"),
        (2, -2.093512692558039, 54,
         "86cb81664dc546406309d42a11950deca86dd74fe604551f65234ea88e5f04fa"),
        (3, -1.576032916166639, 80,
         "7d28ded88af708f75157c1f0cbebffe068a73cd676b76dfa95df95aa5df6ca90"),
    ])
    def test_fams_cg_sizes(self, seed, value, iterations, digest):
        self._check(_fams_cg_instance(seed), value, iterations, digest)

    # recorded with the frozenset search, before flights became bitmasks
    @pytest.mark.parametrize("seed, value, iterations, digest", [
        (6, -2.190363722248467, 57,
         "9530a4af42b10616b14b7236ccc5d209e622b5e657b4bc58e7880f730e9bb243"),
        (7, -1.776340110905732, 68,
         "167b3d69812b62f7986b97d5921a6fcd5b647ed53d647938b0e445e1f2796a36"),
    ])
    def test_fams_cg_with_forbidden_pairs(self, seed, value, iterations, digest):
        inst = with_random_forbidden(_fams_cg_instance(seed), np.random.default_rng(seed))
        assert len(inst.forbidden) > 60
        self._check(inst, value, iterations, digest)

    @staticmethod
    def _check(inst, value, iterations, digest):
        cg = _cg(inst)
        stacked = np.stack([s.values for s in cg.strategies]).astype(np.int64)
        assert cg.value == value
        assert cg.iterations == iterations
        assert hashlib.sha256(stacked.tobytes() + cg.weights.tobytes()).hexdigest() == digest

    def test_priced_columns_are_the_best_responses(self, monkeypatch):
        # ``fams_dbr``'s strategies join the columns as they are; the last
        # one priced does not, as it stops the loop
        returned, dbr = [], fams.fams_dbr

        def kept(*args):
            returned.append(dbr(*args))
            return returned[-1]

        monkeypatch.setattr(fams, "fams_dbr", kept)
        cg = _cg(_fams_cg_instance(0))
        assert len(returned) == cg.iterations == len(cg.strategies)
        assert all(s is r for s, r in zip(cg.strategies[1:], returned[:-1], strict=True))

    def test_columns_are_stored_as_int8(self):
        cg = _cg(_fams_cg_instance(0))
        assert {s.values.dtype for s in cg.strategies} == {np.dtype(np.int8)}
        assert not cg.strategies[0].values.any()  # the empty allocation

    @pytest.mark.parametrize("seed, forbidden", [(0, False), (2, False), (3, False),
                                                 (6, True), (7, True)])
    def test_master_columns_are_the_compiled_coverages(self, seed, forbidden, monkeypatch):
        # column generation counts each priced column's flight coverage from
        # the flight x schedule pairs; its master columns must hold the
        # utilities of ``compiled.coverages`` to the last bit
        inst = _fams_cg_instance(seed)
        if forbidden:
            inst = with_random_forbidden(inst, np.random.default_rng(seed))
        masters = []

        def kept(prog, **kwargs):
            masters.append(prog)
            return solve_lp(prog, **kwargs)

        monkeypatch.setattr(fams, "solve_lp", kept)
        cg = _cg(inst)
        master = masters[0]  # every warm solve passes this one program
        compiled = encode_fams(inst).compiled
        u_undef = compiled.payoff_undefended
        util = u_undef + compiled.coverages(np.stack([s.values for s in cg.strategies])) * (
            compiled.payoff_defended - u_undef)
        rows, var, coeff = master.entries
        mix_row = len(u_undef)
        # variables: the empty allocation, the type's z, then the priced columns
        for j, u in enumerate(util[1:], start=2):
            mine = var == j
            expected = np.zeros(mix_row + 1)
            expected[:mix_row] = -u
            expected[mix_row] = 1.0
            got = np.zeros(mix_row + 1)
            got[rows[mine]] = coeff[mine]
            assert got.tobytes() == expected.tobytes()
        assert master.num_vars == len(cg.strategies) + 1


def _cg(inst):
    """Column generation with no time cutoff."""
    return fams.fams_column_generation(inst, cutoff_s=np.inf)


def _perturb_cold_solve(monkeypatch, perturb):
    """Pass column generation's cold re-solve through ``perturb``: every
    warm solve passes the first program solved, the master."""
    masters = []

    def solve(prog, **kwargs):
        masters.append(prog)
        sol = solve_lp(prog, **kwargs)
        return sol if prog is masters[0] else perturb(sol)

    monkeypatch.setattr(fams, "solve_lp", solve)


def _dbr(inst, w):
    """The best response with no bound from the summed flight masses."""
    return fams_dbr(FamsTables(inst), w, np.inf)


def _fams_cg_instance(seed):
    """An instance of the benchmark's ``fams-cg`` size."""
    return gen_fams(GenConfig(seed=seed, family="fams", flights=18, schedules=36,
                              targets_per_schedule=2, resources=7))
