import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ara import lp as lp_mod
from ara import marginal
from ara.generators import GenConfig, gen_tsg
from ara.lp import LinearProgram, LpError, solve_lp
from ara.tsg import encode_tsg


def test_single_variable():
    lp = LinearProgram(1, objective=np.array([1.0]))
    lp.add_row({0: 1.0}, "<=", 3.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_simplex_on_triangle():
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_infeasible_reports_rows():
    lp = LinearProgram(1)
    lp.add_row({0: 1.0}, "<=", 1.0, label="cap")
    lp.add_row({0: 1.0}, ">=", 2.0, label="floor")
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert "floor" in sol.infeasible_rows


def test_unbounded():
    lp = LinearProgram(1, objective=np.array([1.0]))
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


def test_negative_lower_bound_and_equality():
    lp = LinearProgram(2, objective=np.array([1.0, 0.0]), lower=np.array([-10.0, -4.0]))
    lp.add_row({0: 1.0, 1: 1.0}, "=", -2.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([2.0, -4.0])
    _assert_dual_certificate(lp, sol)


def test_lower_bound_shift():
    # x >= (5, -1) is shifted to zero, which takes the row's rhs to -2: the
    # tableau negates the row, and it then needs an artificial
    lp = LinearProgram(2, objective=np.array([-1.0, -1.0]), lower=np.array([5.0, -1.0]))
    lp.add_row({0: 1.0, 1: -1.0}, "<=", 4.0, label="gap")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([5.0, 1.0])
    assert sol.objective_value == pytest.approx(-6.0)
    assert sol.duals == pytest.approx([1.0])
    _assert_dual_certificate(lp, sol)
    # the state keeps the bounds the program was solved with
    lp.lower[0] = 0.0
    assert sol.state.shift.tolist() == [5.0, -1.0]


@pytest.mark.parametrize("bound", [-np.inf, np.inf, np.nan])
def test_non_finite_lower_bound_is_refused(bound):
    lp = LinearProgram(2, objective=np.array([1.0, 0.0]))
    lp.lower[1] = bound
    lp.add_row({0: 1.0, 1: 1.0}, "=", -2.0)
    with pytest.raises(LpError, match="variable 1 has lower bound"):
        solve_lp(lp)


def test_iteration_cap_is_named(monkeypatch):
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_row({0: 1.0, 1: 2.0}, "<=", 4.0)
    lp.add_row({0: 2.0, 1: 1.0}, "<=", 4.0)
    monkeypatch.setattr(lp_mod, "PIVOT_CAP_FACTOR", 0)
    with pytest.raises(LpError, match="cap of 0 pivots"):
        solve_lp(lp)


def test_resolve_is_bit_identical():
    rng = np.random.default_rng(5)
    lp = LinearProgram(6, objective=rng.normal(size=6))
    for _ in range(4):
        coeffs = {j: float(rng.normal()) for j in range(6)}
        lp.add_row(coeffs, "<=", float(rng.uniform(1, 3)))
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.duals, b.duals)


def _random_feasible_bounded(rng, n=5, m=4):
    # x0 feasible by construction; the box rows x_j <= 3 keep the program bounded
    lp = LinearProgram(n, objective=rng.uniform(-1, 2, size=n))
    x0 = rng.uniform(0, 1, size=n)
    for _ in range(m):
        a = rng.uniform(-1, 1, size=n)
        slack = rng.uniform(0.1, 1.0)
        lp.add_row({j: a[j] for j in range(n)}, "<=", float(a @ x0 + slack))
    _add_box(lp)
    return lp


def _add_box(lp):
    for j in range(lp.num_vars):
        lp.add_row({j: 1.0}, "<=", 3.0, label=f"box {j}")


def _dual_of(lp):
    """Assemble the dual by hand: rows of the primal become variables.

    Primal: max c.x, Ax <= b, x >= 0 (the box rows included in A), so the
    dual is min b.y with A^T y >= c, y >= 0.
    """
    dual = LinearProgram(len(lp.rows))
    for i, row in enumerate(lp.rows):
        dual.objective[i] = -row.rhs  # maximize the negated objective
    e_row, e_var, e_val = (e.tolist() for e in lp.entries)
    for j in range(lp.num_vars):
        coeffs = {i: a for i, v, a in zip(e_row, e_var, e_val) if v == j}
        dual.add_row(coeffs, ">=", float(lp.objective[j]))
    return dual


@pytest.mark.parametrize("seed", range(8))
def test_strong_duality_spot_check(seed):
    rng = np.random.default_rng(seed)
    lp = _random_feasible_bounded(rng)
    primal = solve_lp(lp)
    assert primal.status == "optimal"
    dual = solve_lp(_dual_of(lp))
    assert dual.status == "optimal"
    assert -dual.objective_value == pytest.approx(primal.objective_value, abs=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_duals_match_shadow_prices(seed):
    rng = np.random.default_rng(100 + seed)
    lp = _random_feasible_bounded(rng)
    sol = solve_lp(lp)
    # complementary slackness: positive dual implies a tight row
    for i, (row, activity) in enumerate(zip(lp.rows, _dense(lp) @ sol.values)):
        if sol.duals[i] > 1e-7:
            assert activity == pytest.approx(row.rhs, abs=1e-6)


def _random_program(rng, n, m):
    """Feasible at a random x0 in [0, 1]^n, with m random rows of a random
    mix of <=, >= and =, then the box rows x_j <= 3."""
    lp = LinearProgram(n, objective=rng.uniform(-1, 2, size=n))
    x0 = rng.uniform(0, 1, size=n)
    for i in range(m):
        a = rng.uniform(-1, 1, size=n)
        relation = ("<=", ">=", "=")[int(rng.integers(3))]
        slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[relation] * rng.uniform(0.1, 1.0)
        lp.add_row({j: float(a[j]) for j in range(n)}, relation, float(a @ x0 + slack),
                   label=f"r{i}")
    _add_box(lp)
    return lp


def _append_random_columns(rng, lp, count, m):
    """Append variables x >= 0 on the first m (random) rows, none on the box."""
    for _ in range(count):
        coeffs = {i: float(rng.uniform(-1, 1)) for i in range(m) if rng.random() < 0.8}
        lp.add_column(coeffs, float(rng.uniform(-1, 2)))


def _row_coeffs(lp):
    """Each row's coefficients as a dict, in the program's entry order."""
    out = [{} for _ in lp.rows]
    for i, j, a in zip(*(e.tolist() for e in lp.entries)):
        out[i][j] = a
    return out


def _copy(lp):
    out = LinearProgram(lp.num_vars, lp.objective.copy(), lower=lp.lower.copy())
    for row, coeffs in zip(lp.rows, _row_coeffs(lp)):
        out.add_row(coeffs, row.relation, row.rhs, row.label)
    return out


def _assert_dual_certificate(lp, sol, tol=1e-7):
    """The duals are feasible for the dual program and close the gap:
    max c.x, rows, x >= l has the dual min b.y + l.(c - A^T y) with
    A^T y >= c, y >= 0 on <= rows, y <= 0 on >= rows."""
    y = sol.duals
    sign = {"<=": 1.0, ">=": -1.0, "=": 0.0}
    assert all(sign[row.relation] * yi >= -tol for row, yi in zip(lp.rows, y))
    reduced = lp.objective - _dense(lp).T @ y
    assert np.all(reduced <= tol)
    dual_obj = sum(row.rhs * yi for row, yi in zip(lp.rows, y)) + lp.lower @ reduced
    assert dual_obj == pytest.approx(sol.objective_value, rel=1e-9, abs=1e-9)


def _dense(lp):
    A = np.zeros((len(lp.rows), lp.num_vars))
    e_row, e_var, e_val = lp.entries
    A[e_row, e_var] = e_val
    return A


def _highs(lp, method="highs", options=None):
    from scipy.optimize import linprog
    A = _dense(lp)
    rel = np.array([row.relation for row in lp.rows])
    rhs = np.array([row.rhs for row in lp.rows])
    ub = np.concatenate([A[rel == "<="], -A[rel == ">="]])
    res = linprog(-lp.objective, A_ub=ub if len(ub) else None,
                  b_ub=np.concatenate([rhs[rel == "<="], -rhs[rel == ">="]]) if len(ub) else None,
                  A_eq=A[rel == "="] if np.any(rel == "=") else None,
                  b_eq=rhs[rel == "="] if np.any(rel == "=") else None,
                  bounds=[(lo, None) for lo in lp.lower], method=method, options=options)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if status == "optimal" else None)


def test_marginal_lp_reaches_the_optimum(monkeypatch):
    # the screening marginal LP whose last reduced cost, 6.8e-8, once passed
    # for optimal: it stopped 3.7e-6 (relative) short of the optimum
    programs = []
    monkeypatch.setattr(marginal, "solve_lp", lambda prog: programs.append(prog) or solve_lp(prog))
    inst = gen_tsg(GenConfig(seed=11026, family="tsg", flights=40, risk_levels=2,
                             resource_types=3, team_types=3))
    marginal.solve_marginal(encode_tsg(inst))
    (prog,) = programs
    ours = solve_lp(prog)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    status, objective = _highs(prog, method="highs-ds", options=tight)
    assert ours.status == status == "optimal"
    assert ours.objective_value == pytest.approx(objective, rel=1e-9, abs=0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 5),
       added=st.integers(1, 5))
def test_warm_start_agrees_with_cold_solve_and_highs(seed, n, m, added):
    rng = np.random.default_rng(seed)
    lp = _random_program(rng, n, m)
    base = solve_lp(lp)
    assert base.status == "optimal"
    _append_random_columns(rng, lp, added, m)
    warm = solve_lp(lp, warm=base.state)
    cold = solve_lp(_copy(lp))
    status, objective = _highs(lp)
    assert warm.status == cold.status == status
    if status == "optimal":
        assert warm.objective_value == pytest.approx(objective, rel=1e-9, abs=1e-9)
        assert cold.objective_value == pytest.approx(objective, rel=1e-9, abs=1e-9)
        _assert_dual_certificate(lp, warm)
        _assert_dual_certificate(lp, cold)


@pytest.mark.parametrize("seed", range(5))
def test_warm_resolve_pivots_less_than_cold(seed):
    rng = np.random.default_rng(300 + seed)
    lp = _random_program(rng, 12, 10)
    base = solve_lp(lp)
    _append_random_columns(rng, lp, 1, 10)
    warm = solve_lp(lp, warm=base.state)
    cold = solve_lp(_copy(lp))
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert 0 <= warm.pivots < cold.pivots


def test_warm_resolve_of_unchanged_program_makes_no_pivot():
    lp = _random_program(np.random.default_rng(4), 5, 4)
    first = solve_lp(lp)
    again = solve_lp(lp, warm=first.state)
    assert again.pivots == 0
    assert np.array_equal(again.values, first.values)
    assert np.array_equal(again.duals, first.duals)


def test_warm_start_keeps_working_over_many_columns():
    rng = np.random.default_rng(9)
    lp = _random_program(rng, 4, 6)
    sol = solve_lp(lp)
    for _ in range(20):
        _append_random_columns(rng, lp, 1, 6)
        sol = solve_lp(lp, warm=sol.state)
        if sol.status != "optimal":
            break
        assert sol.objective_value == pytest.approx(solve_lp(_copy(lp)).objective_value,
                                                    abs=1e-9)


def test_warm_start_refuses_added_rows():
    lp = _random_program(np.random.default_rng(1), 3, 2)
    state = solve_lp(lp).state
    lp.add_row({0: 1.0}, "<=", 1.0)
    with pytest.raises(LpError, match="rows were added"):
        solve_lp(lp, warm=state)


def test_warm_start_refuses_another_program():
    state = solve_lp(_random_program(np.random.default_rng(1), 3, 2)).state
    with pytest.raises(LpError, match="another program"):
        solve_lp(_random_program(np.random.default_rng(1), 3, 2), warm=state)


def test_warm_start_refuses_shifted_new_variable():
    lp = _random_program(np.random.default_rng(1), 3, 2)
    state = solve_lp(lp).state
    j = lp.add_column({0: 1.0}, 1.0)
    lp.lower[j] = 2.0
    with pytest.raises(LpError, match="lower bound 0"):
        solve_lp(lp, warm=state)


def test_add_column_on_unknown_row():
    lp = LinearProgram(1)
    lp.add_row({0: 1.0}, "<=", 1.0)
    with pytest.raises(LpError, match="unknown row 1"):
        lp.add_column({1: 1.0}, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coefficient_is_refused_where_it_comes_in(bad):
    lp = LinearProgram(2)
    with pytest.raises(LpError, match="row cap has non-finite coefficient"):
        lp.add_row({0: 1.0, 1: bad}, "<=", 1.0, label="cap")
    lp.add_row({0: 1.0}, "<=", 1.0)
    with pytest.raises(LpError, match="column 2 has non-finite coefficient"):
        lp.add_column({0: bad}, 0.0)
    # nothing of either refused call was kept
    assert (len(lp.rows), lp.num_vars, len(lp.objective)) == (1, 2, 2)
    assert [e.tolist() for e in lp.entries] == [[0], [0], [1.0]]


def test_warm_solve_reads_an_edited_objective():
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_row({0: 1.0, 1: 2.0}, "<=", 4.0)
    lp.add_row({0: 2.0, 1: 1.0}, "<=", 4.0)
    state = solve_lp(lp).state
    lp.objective[0] = 4.0
    warm = solve_lp(lp, warm=state)
    cold = solve_lp(_copy(lp))
    assert cold.objective_value == pytest.approx(8.0)
    assert warm.status == "optimal"
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
    assert warm.values == pytest.approx(cold.values, abs=1e-12)
    _assert_dual_certificate(lp, warm)


def test_perturbed_solution_fails_the_primal_check():
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_row({0: 1.0, 1: 2.0}, "<=", 4.0, label="cap")
    lp.add_row({0: 1.0, 1: -1.0}, "=", 0.0, label="tie")
    sol = solve_lp(lp)
    lp_mod._verify_primal(lp, sol.values)
    with pytest.raises(LpError, match="violates cap"):
        lp_mod._verify_primal(lp, sol.values * 1.001)
    with pytest.raises(LpError, match="violates tie"):
        lp_mod._verify_primal(lp, sol.values - [1e-3, 0.0])
    with pytest.raises(LpError, match="variable bounds"):
        lp_mod._verify_primal(lp, np.array([-1.0, -1.0]))


def test_oversized_tableau_is_refused_before_allocating():
    n = 12_000
    lp = LinearProgram(n, objective=np.ones(n))
    for j in range(n):
        lp.add_row({j: 1.0}, "<=", 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(LpError, match="GiB limit"):
            solve_lp(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# The row-sparse pivot loop against the dense loop it replaced.  Both must
# reach the same tableau bit for bit: a zero factor leaves its row as it is,
# and the eligible-rows ratio test forms the same quotients.

def _reference_pivot_loop(T, b, basis, costs, banned, cap, events):
    """``ara.lp._pivot_loop`` as it was before the row-sparse elimination and
    the eligible-rows ratio test: every pivot runs the ratio test over all
    rows and eliminates over the whole tableau.  The ``events`` lines only
    count, in a Counter, what the solve went through."""
    nr, total = T.shape
    bland = False
    stall = 0
    last_obj = float(costs[basis] @ b)
    for pivots in range(cap):
        red = costs - T.T @ costs[basis]
        if banned is not None:
            red = np.where(banned, -np.inf, red)
        red[basis] = -np.inf
        if bland:
            cand = np.nonzero(red > lp_mod.OPT_TOL)[0]
            if cand.size == 0:
                return "optimal", pivots
            enter = int(cand[0])
        else:
            enter = int(np.argmax(red))
            if red[enter] <= lp_mod.OPT_TOL:
                return "optimal", pivots

        col = T[:, enter]
        elig = col > lp_mod.FEAS_TOL
        art_rows = np.zeros(nr, dtype=bool)
        if banned is not None:
            art_rows = banned[basis] & (np.abs(col) > lp_mod.FEAS_TOL)
            elig = elig | art_rows
        if not np.any(elig):
            return "unbounded", pivots
        safe_col = np.where(np.abs(col) > lp_mod.FEAS_TOL, col, 1.0)
        ratios = np.where(elig, b / safe_col, np.inf)
        ratios = np.where(art_rows, 0.0, ratios)
        best = np.min(ratios)
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        # prefer driving artificials out, then Bland's lowest basis index
        tie_order = np.lexsort((basis[ties], ~art_rows[ties]))
        leave = int(ties[tie_order[0]])

        piv = T[leave, enter]
        T[leave] /= piv
        b[leave] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        events["phase 1" if banned is None else "phase 2"] += 1
        events["artificial row crossed"] += bool(art_rows.any())
        events["tied ratios"] += ties.size > 1
        sparse = np.count_nonzero(factors) < lp_mod._SPARSE_SHARE * nr
        events["row-sparse" if sparse else "whole tableau"] += 1
        T -= np.outer(factors, T[leave])
        b -= factors * b[leave]
        np.maximum(b, 0.0, out=b)
        basis[leave] = enter

        cur = float(costs[basis] @ b)
        if cur > last_obj + 1e-12:
            bland = False
            stall = 0
        else:
            stall += 1
            if stall >= lp_mod._STALL_PIVOTS:
                events["Bland"] += not bland
                bland = True
        last_obj = cur
    raise LpError(f"simplex exceeded iteration cap of {cap} pivots")


@contextmanager
def _pivot_loop(loop):
    real = lp_mod._pivot_loop
    lp_mod._pivot_loop = loop
    try:
        yield
    finally:
        lp_mod._pivot_loop = real


def _block_program(rng, blocks, n, m):
    """``blocks`` programs of ``_random_program`` side by side.  No row or
    variable is shared between blocks, so a tableau column touches the rows
    of one block only.  Returns the program and, per block, the rows an
    appended column may touch."""
    parts = [_random_program(rng, n, m) for _ in range(blocks)]
    lp = LinearProgram(blocks * n, objective=np.concatenate([p.objective for p in parts]))
    free_rows = []
    for k, part in enumerate(parts):
        free_rows.append(range(len(lp.rows), len(lp.rows) + m))
        for row, coeffs in zip(part.rows, _row_coeffs(part)):
            lp.add_row({j + k * n: a for j, a in coeffs.items()}, row.relation, row.rhs)
    return lp, free_rows


def _cycling_program(rng, extra):
    """Chvátal's example of cycling under Dantzig's rule (*Linear
    Programming*, 1983, ch. 3), with each row and the objective scaled by a
    power of two, which keeps the cycle, and ``extra`` random <=, >= or =
    rows through the origin.  Every row but the last has right-hand side 0,
    so the ratio test ties and artificials can end phase 1 basic at zero;
    without the extra rows the solve cycles until the Bland switch.
    Returns the program and the rows an appended column may touch."""
    scale = 2.0 ** rng.integers(-2, 3, size=4)
    lp = LinearProgram(4, objective=scale[3] * np.array([10.0, -57.0, -9.0, -24.0]))
    lp.add_row({j: scale[0] * a for j, a in enumerate([0.5, -5.5, -2.5, 9.0])}, "<=", 0.0)
    lp.add_row({j: scale[1] * a for j, a in enumerate([0.5, -1.5, -0.5, 1.0])}, "<=", 0.0)
    for _ in range(extra):
        a = rng.integers(-2, 3, size=4)
        lp.add_row({j: float(a[j]) for j in range(4) if a[j]},
                   ("<=", ">=", "=")[int(rng.integers(3))], 0.0)
    lp.add_row({0: scale[2]}, "<=", scale[2])
    return lp, [range(len(lp.rows) - 1)]


def _reference_program(kind, rng):
    if kind == "block-sparse":
        return _block_program(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)),
                              int(rng.integers(1, 4)))
    if kind == "dense":
        n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        return _random_program(rng, n, m), [range(m)]
    return _cycling_program(rng, int(rng.integers(0, 4)))


def _assert_same_solve(lp, events, warm=None, ref_warm=None):
    new = solve_lp(lp, warm=warm)
    with _pivot_loop(partial(_reference_pivot_loop, events=events)):
        ref = solve_lp(lp, warm=ref_warm)
    assert new.status == ref.status
    assert new.infeasible_rows == ref.infeasible_rows
    assert new.pivots == ref.pivots
    assert new.objective_value == ref.objective_value
    for name in ("values", "duals"):
        got, want = getattr(new, name), getattr(ref, name)
        assert (got is None and want is None) or np.array_equal(got, want), name
    if new.state is not None:
        assert np.array_equal(new.state.basis, ref.state.basis)
    return new, ref


def _check_against_reference(kind, seed, added, events):
    """Cold solves, then warm solves after ``added`` appended columns, each
    within one block's rows, must match the reference loop."""
    rng = np.random.default_rng(seed)
    lp, free_rows = _reference_program(kind, rng)
    new, ref = _assert_same_solve(lp, events)
    if new.status != "optimal":
        return
    for _ in range(added):
        rows = free_rows[int(rng.integers(len(free_rows)))]
        lp.add_column({i: float(rng.uniform(-1, 1)) for i in rows if rng.random() < 0.8},
                      float(rng.uniform(-1, 2)))
    _assert_same_solve(lp, events, warm=new.state, ref_warm=ref.state)


REFERENCE_KINDS = ("block-sparse", "dense", "degenerate")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(REFERENCE_KINDS), seed=st.integers(0, 2**32 - 1),
       added=st.integers(1, 4))
def test_pivot_loop_matches_the_dense_reference_bit_for_bit(kind, seed, added):
    _check_against_reference(kind, seed, added, Counter())


def test_reference_programs_reach_every_pivot_path():
    # the property test is only as strong as the paths its programs take
    events = Counter()
    for kind in REFERENCE_KINDS:
        for seed in range(10):
            _check_against_reference(kind, seed, 2, events)
    for event in ("phase 1", "phase 2", "artificial row crossed", "tied ratios",
                  "row-sparse", "whole tableau", "Bland"):
        assert events[event] > 0, event
