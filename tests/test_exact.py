import tracemalloc

import numpy as np
import pytest

from ara import exact
from ara.core import AraGame, AssignmentConstraint, GameError, PureStrategy, Target, game_value
from ara.exact import enumerate_pure, exact_maximin
from ara.fams import encode_fams
from ara.tsg import encode_tsg
from conftest import violations


def test_single_cell_binary():
    con = AssignmentConstraint([(0, 0)], 0, 1)
    t = Target("t", [(0, 0)], [1.0], 0.0, -1.0)
    game = AraGame(1, 1, (con,), (t,))
    assert sorted(int(s.values[0, 0]) for s in enumerate_pure(game)) == [0, 1]


def test_enumeration_respects_flight_constraints(fig1b_fams):
    game = encode_fams(fig1b_fams)
    out = enumerate_pure(game)
    for s in out:
        assert violations(game, s) == []
    # no duplicates
    seen = {s.values.tobytes() for s in out}
    assert len(seen) == len(out)


def test_tsg_count_matches_hand_enumeration(fig1c_tsg):
    game = encode_tsg(fig1c_tsg)
    out = enumerate_pure(game)

    # independent nested-loop count over per-column compositions
    import itertools

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    count = 0
    ns = [c.passengers for c in fig1c_tsg.categories]
    for cols in itertools.product(*(compositions(n, 3) for n in ns)):
        m = np.array(cols).T
        xray = m[0].sum() + m[1].sum()
        md = m[1].sum() + m[2].sum()
        if xray <= 7 and md <= 15:
            count += 1
    assert len(out) == count


def test_enumeration_past_the_cap_is_refused(monkeypatch):
    # 35 strategies: the rows of four nonnegative cells summing to at most 3
    game_cells = [(0, j) for j in range(4)]
    con = AssignmentConstraint(game_cells, 0, 3)
    t = Target("t", game_cells, [0.25] * 4, 0.0, -1.0)
    game = AraGame(1, 4, (con,), (t,))
    monkeypatch.setattr(exact, "ENUM_CAP", 35)
    assert len(enumerate_pure(game)) == 35
    monkeypatch.setattr(exact, "ENUM_CAP", 34)
    with pytest.raises(GameError, match="enumeration passed its cap of 34 pure strategies"):
        enumerate_pure(game)


def test_search_depth_is_not_bounded_by_recursion_limit(monkeypatch):
    # the search goes one level deeper per cell
    monkeypatch.setattr(exact, "ENUM_CAP", 10)
    cells = [(0, j) for j in range(1500)]
    t = Target("t", cells, [1.0] * 1500, -1.0, -5.0)
    game = AraGame(1, 1500, (AssignmentConstraint(cells, 0, 1, label="row"),), (t,))
    with pytest.raises(GameError, match="cap of 10 pure strategies"):
        enumerate_pure(game)


def test_enumeration_past_the_byte_budget_is_refused(monkeypatch):
    # 2,001 strategies of 1 x 2,000 int64 cells would keep 32 MB; a 1 MiB
    # budget stops the search at 65 of them (16,000 bytes each)
    cells = [(0, j) for j in range(2000)]
    t = Target("t", cells, [1.0] * 2000, -1.0, -5.0)
    game = AraGame(1, 2000, (AssignmentConstraint(cells, 0, 1, label="row"),), (t,))
    monkeypatch.setattr(exact, "MAX_ENUM_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(GameError, match="more than 65 pure strategies of 1 x 2000 cells"):
            enumerate_pure(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_single_strategy_value():
    con = AssignmentConstraint([(0, 0)], 1, 1)
    t = Target("t", [(0, 0)], [1.0], -1.0, -5.0)
    game = AraGame(1, 1, (con,), (t,))
    out = enumerate_pure(game)
    sol = exact_maximin(game, out)
    assert sol.value == pytest.approx(game_value(game, out[0]))


def test_matching_pennies_mix():
    # one marshal, two singleton schedules, symmetric payoffs: mix evenly
    con = AssignmentConstraint([(0, 0), (0, 1)], 0, 1, label="row")
    ta = Target("a", [(0, 0)], [1.0], -1.0, -5.0)
    tb = Target("b", [(0, 1)], [1.0], -1.0, -5.0)
    game = AraGame(1, 2, (con,), (ta, tb))
    sol = exact_maximin(game, enumerate_pure(game))
    assert sol.value == pytest.approx(-3.0)  # coverage 1/2 on each
    by_matrix = {tuple(s.values.ravel().tolist()): w for w, s in zip(sol.weights, sol.strategies)}
    assert by_matrix[(1, 0)] == pytest.approx(0.5)
    assert by_matrix[(0, 1)] == pytest.approx(0.5)


def test_duplicating_a_strategy_changes_nothing(fig1b_fams):
    game = encode_fams(fig1b_fams)
    strategies = enumerate_pure(game)
    base = exact_maximin(game, strategies)
    doubled = exact_maximin(game, strategies + (strategies[0],))
    assert doubled.value == pytest.approx(base.value, abs=1e-9)


def test_support_size_bound(fig1b_fams, fig1c_tsg):
    for game in (encode_fams(fig1b_fams), encode_tsg(fig1c_tsg)):
        sol = exact_maximin(game, enumerate_pure(game))
        assert np.count_nonzero(sol.weights > 1e-9) <= game.k * game.n + 1
