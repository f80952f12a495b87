"""Ground-truth maximin solver: enumerate pure strategies, then solve the
support LP.  Only viable for tiny instances; callers must refuse truncated
enumerations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ara.core import AraGame, GameError, PureStrategy
from ara.lp import LinearProgram, solve_lp

DEFAULT_ENUM_CAP = 10 ** 6


@dataclass(frozen=True)
class EnumeratedStrategySet:
    strategies: tuple[PureStrategy, ...]
    truncated: bool


def enumerate_pure(game: AraGame, cap: int = DEFAULT_ENUM_CAP) -> EnumeratedStrategySet:
    """Depth-first search over cells with running-sum constraint propagation.

    Exhaustive iff the strategy count stays within ``cap``; otherwise the
    result is truncated and unusable for certification.
    """
    if cap < 1:
        raise GameError("cap must be at least 1")
    k, n = game.k, game.n
    ncells = k * n
    cons = game.constraints
    by_cell: list[list[tuple[int, int]]] = [[] for _ in range(ncells)]
    for ci, con in enumerate(cons):
        for cell in con.cells:
            by_cell[cell[0] * n + cell[1]].append((ci, con.coeff(cell)))

    cell_max = []
    for idx in range(ncells):
        caps = [cons[ci].upper // coeff for ci, coeff in by_cell[idx]]
        cell_max.append(min(caps) if caps else 0)

    sums = [0] * len(cons)
    remaining = [len(con.cells) for con in cons]
    # max additional mass the unassigned cells of each constraint can add
    max_add = [sum(cell_max[c[0] * n + c[1]] * con.coeff(c) for c in con.cells)
               for con in cons]
    matrix = np.zeros((k, n), dtype=np.int64)
    out: list[PureStrategy] = []
    truncated = False

    # Iterative so that the search depth (one level per cell) is not bounded
    # by the interpreter's recursion limit.  At each open cell, value[idx] is
    # what the cell adds to ``sums`` (0 before its first value) and
    # nxt[idx]..hi[idx] the values still to try.
    value = [0] * ncells
    nxt = [0] * ncells
    hi = [0] * ncells

    def open_cell(idx: int) -> None:
        lo, top = 0, cell_max[idx]
        for ci, coeff in by_cell[idx]:
            con = cons[ci]
            top = min(top, (con.upper - sums[ci]) // coeff)
            if remaining[ci] == 1 and con.lower > sums[ci]:
                lo = max(lo, -(-(con.lower - sums[ci]) // coeff))
            remaining[ci] -= 1
            max_add[ci] -= cell_max[idx] * coeff
        value[idx], nxt[idx], hi[idx] = 0, lo, top

    depth = 0
    open_cell(0)
    while depth >= 0:
        touches = by_cell[depth]
        for ci, coeff in touches:
            sums[ci] -= value[depth] * coeff
        v = nxt[depth]
        if v > hi[depth]:
            matrix.flat[depth] = 0
            for ci, coeff in touches:
                remaining[ci] += 1
                max_add[ci] += cell_max[depth] * coeff
            depth -= 1
            continue
        value[depth], nxt[depth] = v, v + 1
        matrix.flat[depth] = v
        for ci, coeff in touches:
            sums[ci] += v * coeff
        if not all(sums[ci] + max_add[ci] >= cons[ci].lower for ci, _ in touches):
            continue
        if depth + 1 < ncells:
            depth += 1
            open_cell(depth)
        elif len(out) >= cap:
            truncated = True
            break
        else:
            out.append(PureStrategy(matrix.copy()))

    return EnumeratedStrategySet(tuple(out), truncated)


@dataclass(frozen=True)
class MaximinSolution:
    value: float
    weights: np.ndarray
    strategies: tuple[PureStrategy, ...]

    def support(self, tol: float = 1e-9):
        return [(float(w), s) for w, s in zip(self.weights, self.strategies) if w > tol]


def exact_maximin(game: AraGame, strategies) -> MaximinSolution:
    """Solve the maximin LP over an exhaustive pure-strategy list.

    max sum_theta p_theta z_theta subject to
    z_theta <= sum_m a_m U_d(P_m, t) for every type and target,
    sum_m a_m = 1, a >= 0.
    """
    if isinstance(strategies, EnumeratedStrategySet):
        if strategies.truncated:
            raise GameError("refusing to certify with a truncated enumeration")
        strategies = strategies.strategies
    strategies = tuple(strategies)
    if not strategies:
        raise GameError("no pure strategies to mix")

    active = [a for a in game.adversary_types if a.probability > 0.0 and a.targets]
    m = len(strategies)
    prog = LinearProgram(m + len(active))
    prog.add_row({i: 1.0 for i in range(m)}, "=", 1.0, label="mix")

    stack = np.stack([s.values for s in strategies]).astype(float)
    for ti, a in enumerate(active):
        z = m + ti
        prog.objective[z] = a.probability
        floor = min(game.target(t).payoff_undefended for t in a.targets)
        prog.set_bounds(z, lower=floor)
        for tid in sorted(a.targets):
            t = game.target(tid)
            cov = np.zeros(m)
            for cell, w in t.weights.items():
                cov += w * stack[:, cell[0], cell[1]]
            util = t.payoff_undefended + cov * (t.payoff_defended - t.payoff_undefended)
            coeffs = {z: 1.0}
            for i in range(m):
                if util[i] != 0.0:
                    coeffs[i] = -util[i]
            prog.add_row(coeffs, "<=", 0.0, label=f"type {a.id} target {tid}")

    sol = solve_lp(prog)
    if sol.status != "optimal":
        raise GameError(f"maximin LP ended {sol.status}")
    weights = np.maximum(sol.values[:m], 0.0)
    weights /= weights.sum()
    return MaximinSolution(float(sol.objective_value), weights, strategies)
