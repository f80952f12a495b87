"""Ground-truth maximin solver: enumerate pure strategies, then solve the
support LP.  Only viable for tiny instances; an enumeration past its caps
raises ``GameError``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ara.core import AraGame, GameError, PureStrategy
from ara.lp import LinearProgram, solve_lp

# most pure strategies an enumeration may find
ENUM_CAP = 10 ** 6

# largest total size of the strategy matrices an enumeration may keep
MAX_ENUM_BYTES = 1 << 30


def enumerate_pure(game: AraGame) -> tuple[PureStrategy, ...]:
    """Every pure strategy, by depth-first search over cells with
    running-sum constraint propagation.

    The search raises ``GameError`` once it finds more than ``ENUM_CAP``
    strategies.  Every strategy is kept as a k x n matrix, so it also raises
    once the kept matrices would pass ``MAX_ENUM_BYTES``, whatever
    ``ENUM_CAP`` allows; it counts int64 matrices, the search's own, so it
    is conservative where ``PureStrategy`` stores them narrower.
    """
    k, n = game.k, game.n
    ncells = k * n
    cons = game.constraints
    c = game.compiled
    entries = list(zip(c.con_seg.tolist(), c.con_cell.tolist(), c.con_coeff.tolist()))
    by_cell: list[list[tuple[int, int]]] = [[] for _ in range(ncells)]
    for ci, cell, coeff in entries:  # constraints ascending at every cell
        by_cell[cell].append((ci, coeff))

    cell_max = [min((cons[ci].upper // coeff for ci, coeff in touches), default=0)
                for touches in by_cell]

    sums = [0] * len(cons)
    remaining = [len(con.cells) for con in cons]
    # max additional mass the unassigned cells of each constraint can add
    max_add = [0] * len(cons)
    for ci, cell, coeff in entries:
        max_add[ci] += cell_max[cell] * coeff
    matrix = np.zeros((k, n), dtype=np.int64)
    out: list[PureStrategy] = []

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
        elif len(out) >= ENUM_CAP:
            raise GameError(f"the enumeration passed its cap of {ENUM_CAP} pure strategies; "
                            "the exact oracle cannot certify this instance")
        elif (len(out) + 1) * matrix.nbytes > MAX_ENUM_BYTES:
            raise GameError(f"more than {len(out)} pure strategies of {k} x {n} cells "
                            f"would pass the {MAX_ENUM_BYTES / 2**30:g} GiB enumeration limit")
        else:
            out.append(PureStrategy(matrix))

    return tuple(out)


@dataclass(frozen=True)
class MaximinSolution:
    value: float
    weights: np.ndarray
    strategies: tuple[PureStrategy, ...]


def maximin_lp(game: AraGame, covs: np.ndarray) -> LinearProgram:
    """The maximin LP over m pure strategies, given their per-target
    coverages ``covs`` (m x T, as from ``game.compiled.coverages``).

    max sum_theta p_theta z_theta subject to
    z_theta <= sum_m a_m U_d(P_m, t) for every active type and its targets,
    sum_m a_m = 1, a >= 0, z_theta >= the type's worst undefended payoff.

    Active types have positive probability and some target.  Variables are
    a_0..a_{m-1}, then one z per active type.  Rows are each active type's
    targets in game order, then the ``mix`` row; column generation reads
    its duals in this order.
    """
    compiled = game.compiled
    m = len(covs)
    pu = compiled.payoff_undefended
    util = pu + covs * (compiled.payoff_defended - pu)
    active = [(idx, a) for idx, a in enumerate(game.adversary_types)
              if a.probability > 0.0 and a.targets]
    prog = LinearProgram(m + len(active))
    for z, (idx, a) in enumerate(active, start=m):
        tids = np.flatnonzero(compiled.target_type == idx)
        prog.objective[z] = a.probability
        prog.lower[z] = pu[tids].min()
        for t in tids:
            coeffs = {z: 1.0}
            coeffs.update((i, -u) for i, u in enumerate(util[:, t]) if u != 0.0)
            prog.add_row(coeffs, "<=", 0.0, label=f"type {a.id} target {game.targets[t].id}")
    prog.add_row(dict.fromkeys(range(m), 1.0), "=", 1.0, label="mix")
    return prog


def exact_maximin(game: AraGame, strategies) -> MaximinSolution:
    """Solve the maximin LP (``maximin_lp``) over an exhaustive
    pure-strategy list.  Its rows are the active types' targets in game
    order, then the ``mix`` row: the master LP of column generation, so
    both solve the same program over the same strategies."""
    strategies = tuple(strategies)
    if not strategies:
        raise GameError("no pure strategies to mix")

    covs = game.compiled.coverages(np.stack([s.values for s in strategies]))
    sol = solve_lp(maximin_lp(game, covs))
    if sol.status != "optimal":
        raise GameError(f"maximin LP ended {sol.status}")
    weights = np.maximum(sol.values[:len(strategies)], 0.0)
    weights /= weights.sum()
    return MaximinSolution(float(sol.objective_value), weights, strategies)
