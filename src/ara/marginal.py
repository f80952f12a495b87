"""Build and solve the marginal relaxation LP for an allocation game.

The LP maximizes the probability-weighted worst-case defender utility over
the marginal polytope, which contains every mixed strategy, so its optimum
upper-bounds the true game value.

Interchangeable rows.  In some games (air marshals: every marshal may fly
every schedule) nothing tells the rows apart:

- every row has exactly one single-row constraint, a unit-coefficient budget
  over all n cells of that row, with the same bounds in every row and a
  lower bound of 0 or equal to the upper bound;
- every other constraint has the same coefficient in all k rows of each
  column it touches;
- so does every target weight.

Then every constraint other than the budgets, and every target, depends on x
only through the column sums y_j = sum_i x_ij, and the LP is solved over one
variable per column: the budgets summed over rows (sum_j y_j against k times
the bound), the other constraints and the target rows over y.  This is
exact.  Summing a feasible x over rows gives a feasible y with the same
objective, and x = y / k is feasible for every feasible y, so both LPs have
the same optimum.

The y found is spread back to the k x n cells with a staircase: the y_j are
laid end to end in column order on [0, k u), with u the budget, and row i
takes the part of that line in [i u, (i + 1) u).  Every row then sums to u,
except rows past the end of the line, which the budget's lower bound (0 or
u) allows, and a column of mass at most u spans at most two rows.  x = y / k
is as valid but spreads every column over all k rows; on the seeded
100-flight, 20-marshal air-marshal instances, rand values rounded from it
were 3-4 % further from the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ara.core import (
    AraGame,
    AssignmentConstraint,
    GameError,
    MARGINAL_TOL,
    MarginalStrategy,
    add_constraint_rows,
    game_value,
    row_dicts,
)
from ara.lp import LinearProgram, solve_lp


class GameInfeasibleError(GameError):
    def __init__(self, rows):
        self.rows = tuple(rows)
        super().__init__("assignment constraints are infeasible: " + "; ".join(self.rows))


@dataclass(frozen=True)
class MarginalSolution:
    x_m: MarginalStrategy
    upper_bound: float


def solve_marginal(game: AraGame) -> MarginalSolution:
    """Maximize sum_theta p_theta z_theta over the marginal polytope.

    Coverage terms are substituted inline rather than held as separate LP
    variables.  Games with interchangeable rows are solved over column sums
    (see the module docstring).  Raises GameInfeasibleError naming the
    constraint rows the LP could not satisfy.
    """
    k, n = game.k, game.n
    summed = _over_columns(game)
    if summed is None:
        nx = k * n
        prog = _marginal_lp(game, game.constraints, lambda p: p[:, 0] * n + p[:, 1], nx)
    else:
        nx = n
        prog = _marginal_lp(game, summed, lambda p: p[:, 1], nx)

    sol = solve_lp(prog)
    if sol.status == "infeasible":
        raise GameInfeasibleError(sol.infeasible_rows)
    if sol.status != "optimal":
        raise GameError(f"marginal LP ended {sol.status}")

    values = np.maximum(sol.values[:nx], 0.0)
    x = values.reshape(k, n) if summed is None else _staircase(values, k, summed[0].upper // k)
    bad = game.compiled.violations([x], MARGINAL_TOL)[0]
    if bad:
        raise GameError("marginal solution violates constraints: " + "; ".join(map(str, bad)))
    x_m = MarginalStrategy(x)

    upper = game_value(game, x)
    if abs(upper - sol.objective_value) > 1e-6 * max(1.0, abs(upper)):
        raise GameError(f"marginal objective {sol.objective_value} disagrees with "
                        f"recomputed bound {upper}")
    return MarginalSolution(x_m, upper)


def _marginal_lp(game: AraGame, constraints, var, nx: int) -> LinearProgram:
    """The marginal LP with an (E, 2) array of cell pairs p held by the
    variables ``var(p)`` in [0, nx).

    Cells that share a variable must carry the same coefficient in every
    row and target, which then applies once to the shared variable.
    """
    active = [a for a in game.adversary_types if a.probability > 0.0 and a.targets]
    prog = LinearProgram(nx + len(active))
    c = game.compiled
    coef = -c.tgt_weight * (c.payoff_defended - c.payoff_undefended)[c.tgt_seg]
    used = coef != 0.0
    cells = np.stack(np.divmod(c.tgt_cell[used], game.n), axis=1)
    rows = row_dicts(var(cells), coef[used], c.tgt_seg[used], len(game.targets))

    for ti, a in enumerate(active):
        z = nx + ti
        prog.objective[z] = a.probability
        # z is at least the worst undefended payoff, which keeps the
        # initial slack basis feasible without an artificial variable.
        floor = min(game.target(t).payoff_undefended for t in a.targets)
        prog.lower[z] = floor
        for tid in sorted(a.targets):
            t = c.position(tid)
            prog.add_row({z: 1.0, **rows[t]}, "<=", c.payoff_undefended[t], label=f"target {tid}")

    add_constraint_rows(prog, constraints, var)
    return prog


def _over_columns(game: AraGame):
    """The constraints of the LP over column sums (the row budgets summed
    into one, then the others) when the rows of the game are
    interchangeable, else None."""
    k, n = game.k, game.n
    c = game.compiled
    single = c.single_row >= 0
    budget = c.row_budget
    # a budget in every row and no other single-row constraint; every other
    # constraint, and every target, the same in all k rows
    if np.any(budget < 0) or np.count_nonzero(single) != k:
        return None
    if not _same_in_every_row(k, n, c.con_cell, c.con_coeff, c.con_seg,
                              len(game.constraints))[~single].all():
        return None
    if not _same_in_every_row(k, n, c.tgt_cell, c.tgt_weight, c.tgt_seg, len(game.targets)).all():
        return None
    first, last = game.constraints[budget[0]], game.constraints[budget[-1]]
    if first.lower != 0 and not first.is_equality:
        return None
    if np.any(c.lower[budget] != first.lower) or np.any(c.upper[budget] != first.upper):
        return None
    others = [con for con, one in zip(game.constraints, single) if not one]
    summed = AssignmentConstraint(np.indices((k, n)).reshape(2, -1).T,
                                  k * first.lower, k * first.upper,
                                  label=f"{first.name()} .. {last.name()} summed")
    return (summed, *others)


def _same_in_every_row(k: int, n: int, cell, value, seg, segments: int) -> np.ndarray:
    """Per segment of the (cell, value, segment) entries: whether every
    column it touches holds the same value in all k rows.  Cells are
    distinct within a segment, so a column is full when it has k entries."""
    groups, first, where, count = np.unique(seg * n + cell % n, return_index=True,
                                            return_inverse=True, return_counts=True)
    differs = np.bincount(where, weights=value != value[first][where], minlength=len(groups))
    out = np.ones(segments, dtype=bool)
    out[groups[(count != k) | (differs > 0)] // n] = False
    return out


def _staircase(y: np.ndarray, k: int, u: float) -> np.ndarray:
    """Spread column sums y over k rows of budget u: the y_j lie end to end
    on a line, and row i takes the part in [i u, (i + 1) u); the last row
    also takes anything past k u, so every column sums to its y_j."""
    end = np.cumsum(y)
    start = end - y
    lo = np.arange(k, dtype=float)[:, None] * u
    hi = lo + u
    hi[-1] = np.inf
    return np.maximum(np.minimum(end, hi) - np.maximum(start, lo), 0.0)
