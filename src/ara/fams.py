"""Air-marshal domain: schedules on columns, marshals on rows.

Covers the encoding into the abstract game, the schedule-zeroing repair
heuristic, the exact best-response search, and a plain column-generation
solver used as the exact baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ara.core import AraGame, AssignmentConstraint, GameError, PureStrategy, Target
from ara.exact import exact_maximin, maximin_lp
from ara.lp import solve_lp
from ara.sampling import Pe0Form

DEFAULT_NODE_CAP = 10 ** 7


class DbrNodeCapError(GameError):
    """Best-response search exceeded its node cap; shrink the instance."""


class SolveTimeout(Exception):
    def __init__(self, cutoff_s: float):
        self.cutoff_s = cutoff_s
        super().__init__(f"solve exceeded the {cutoff_s}s cutoff")


@dataclass(frozen=True)
class Schedule:
    id: str
    flights: frozenset[str]

    def __post_init__(self):
        if not self.flights:
            raise GameError(f"schedule {self.id!r} covers no flights")
        object.__setattr__(self, "flights", frozenset(self.flights))


@dataclass(frozen=True)
class FlightSpec:
    id: str
    u_def: float
    u_undef: float

    def __post_init__(self):
        if self.u_def < self.u_undef:
            raise GameError(f"flight {self.id!r} prefers being undefended")


@dataclass(frozen=True)
class FamsInstance:
    num_marshals: int
    schedules: tuple[Schedule, ...]
    flights: tuple[FlightSpec, ...]
    forbidden: frozenset[tuple[int, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "flights", tuple(self.flights))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.num_marshals < 1:
            raise GameError("need at least one marshal")
        sched_ids = [s.id for s in self.schedules]
        if len(set(sched_ids)) != len(sched_ids):
            raise GameError("duplicate schedule ids")
        flight_ids = {f.id for f in self.flights}
        if len(flight_ids) != len(self.flights):
            raise GameError("duplicate flight ids")
        for s in self.schedules:
            unknown = s.flights - flight_ids
            if unknown:
                raise GameError(f"schedule {s.id!r} references unknown flight {sorted(unknown)[0]!r}")
        for m, sid in self.forbidden:
            if not 0 <= m < self.num_marshals or sid not in sched_ids:
                raise GameError(f"forbidden pair ({m}, {sid!r}) references unknown marshal or schedule")


def encode_fams(inst: FamsInstance) -> AraGame:
    """Rows are marshals, columns schedules.  Each marshal gets a unit row
    budget, forbidden pairs pin cells to zero, and each flight becomes a
    unit-weight target over every cell of every schedule containing it,
    with a matching at-most-one allocation constraint."""
    k, n = inst.num_marshals, len(inst.schedules)
    col = {s.id: j for j, s in enumerate(inst.schedules)}
    constraints = []
    for i in range(k):
        cells = frozenset((i, j) for j in range(n))
        constraints.append(AssignmentConstraint(cells, 0, 1, label=f"marshal {i}"))
    for m, sid in sorted(inst.forbidden):
        constraints.append(AssignmentConstraint(frozenset({(m, col[sid])}), 0, 0,
                                                label=f"forbidden ({m}, {sid})"))
    targets = []
    for f in inst.flights:
        cells = frozenset((i, col[s.id]) for s in inst.schedules if f.id in s.flights
                          for i in range(k))
        if cells:
            constraints.append(AssignmentConstraint(cells, 0, 1, label=f"flight {f.id}"))
        targets.append(Target(f.id, cells, {c: 1.0 for c in cells}, f.u_def, f.u_undef))
    return AraGame(k, n, tuple(constraints), tuple(targets))


class FamsFixer:
    """Repair heuristic: zero out schedules that hit the most violated
    flights without touching any satisfied one; when a violated flight has
    no such schedule, drop one of its allocated schedules uniformly at
    random.  Freed marshals land on the slack column, so equalities are
    restored without ever decreasing a cell.  Equal schedules go to the
    lowest column; the random drop serves the most covered flight, ties to
    the lowest flight id."""

    def fix_inequalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        game = pe0.source_game
        incidence = game.compiled.target_columns  # flights x schedules
        x = x.copy()
        n = pe0.source_cols
        while True:
            # only allocated schedules (at most one per marshal) count
            col_tot = x[:, :n].sum(axis=0)
            cols = col_tot.nonzero()[0]
            hits = incidence[:, cols]
            cov = hits @ col_tot[cols]
            violated = cov > 1
            if not violated.any():
                return x
            score = np.where((cov == 1) @ hits > 0, 0, violated @ hits)
            if score.max() > 0:
                best_col = cols[score.argmax()]
            else:
                top = (cov == cov.max()).nonzero()[0]
                worst = min(top, key=lambda fi: game.targets[fi].id)
                options = cols[hits[worst] > 0]
                best_col = options[rng.integers(len(options))]
            # one marshal comes off the chosen schedule per step; repeated
            # steps re-rank, so repair stops as soon as targets hit coverage 1
            row = (x[:, best_col] > 0).argmax()
            x[row, best_col] -= 1

    def fix_equalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        x = x.copy()
        slack = pe0.source_cols
        if x.shape[1] == slack:
            return x
        budgets = np.zeros(x.shape[0], dtype=np.int64)
        for con in pe0.equality_partition:
            budgets[next(iter(con.cells))[0]] = con.lower
        short = budgets - x.sum(axis=1)
        if np.any(short < 0):
            raise GameError("a row exceeds its budget after repair")
        x[:, slack] += short
        return x


def fams_dbr(inst: FamsInstance, d: np.ndarray, node_cap: int = DEFAULT_NODE_CAP,
             total_mass: float = np.inf) -> PureStrategy:
    """Exact defender best response: maximize the d-weighted allocation over
    pure strategies by depth-first search over marshal assignments.

    When every marshal has the same weight row and nothing is forbidden the
    problem is a max-weight packing of flight-disjoint schedules, searched
    over schedules directly.  ``total_mass`` (the summed per-flight masses
    when d[i,j] is the sum over the schedule's flights, as in column
    generation) tightens the bound: no packing can beat the uncovered mass.
    """
    k, n = inst.num_marshals, len(inst.schedules)
    d = np.asarray(d, dtype=float)
    if d.shape != (k, n):
        raise GameError(f"weight shape {d.shape} does not match {(k, n)}")
    if np.any(d < 0):
        raise GameError("best-response weights must be nonnegative")
    col = {s.id: j for j, s in enumerate(inst.schedules)}
    sched_flights = [frozenset(s.flights) for s in inst.schedules]
    banned = [set() for _ in range(k)]
    for m, sid in inst.forbidden:
        banned[m].add(col[sid])

    if not inst.forbidden and np.all(d == d[0]):
        return _dbr_disjoint_packing(inst, d, sched_flights, node_cap, total_mass)

    # marshals with the same allowed set and weight row are interchangeable;
    # sorting makes each group contiguous so canonical ordering applies
    group_key = [(tuple(sorted(banned[i])), d[i].tobytes()) for i in range(k)]
    order = sorted(range(k), key=lambda i: (group_key[i], i))

    options = []
    for i in range(k):
        cols = [j for j in range(n) if j not in banned[i] and d[i, j] > 0]
        cols.sort(key=lambda j: (-d[i, j], j))
        options.append(cols)
    best_of = [(d[i, options[i][0]] if options[i] else 0.0) for i in range(k)]
    suffix_bound = [0.0] * (k + 1)
    for pos in range(k - 1, -1, -1):
        suffix_bound[pos] = suffix_bound[pos + 1] + best_of[order[pos]]

    best_value = -1.0
    best_assign: list[int | None] = [None] * k
    assign: list[int | None] = [None] * k
    nodes = 0

    def rec(pos: int, value: float, covered: frozenset[str], min_rank: int) -> None:
        nonlocal best_value, best_assign, nodes
        nodes += 1
        if nodes > node_cap:
            raise DbrNodeCapError(f"best-response search passed {node_cap} nodes; "
                                  "shrink the instance for the column-generation baseline")
        if value + suffix_bound[pos] <= best_value:
            return
        if pos == k:
            if value > best_value:
                best_value = value
                best_assign = assign.copy()
            return
        i = order[pos]
        same_group = pos > 0 and group_key[order[pos - 1]] == group_key[i]
        start_rank = min_rank if same_group else 0
        for rank in range(start_rank, len(options[i])):
            j = options[i][rank]
            if sched_flights[j] & covered:
                continue
            assign[i] = j
            rec(pos + 1, value + d[i, j], covered | sched_flights[j], rank + 1)
            assign[i] = None
        # leaving this marshal unassigned forces the rest of its group empty
        nxt = pos + 1
        while nxt < k and group_key[order[nxt]] == group_key[i]:
            nxt += 1
        rec(nxt, value, covered, 0)

    rec(0, 0.0, frozenset(), 0)
    matrix = np.zeros((k, n), dtype=np.int64)
    for i, j in enumerate(best_assign):
        if j is not None:
            matrix[i, j] = 1
    return PureStrategy(matrix)


def _dbr_disjoint_packing(inst: FamsInstance, d: np.ndarray, sched_flights,
                          node_cap: int, total_mass: float) -> PureStrategy:
    """Branch and bound over weight-sorted schedules for interchangeable
    marshals: each node extends the packing with a later schedule."""
    k = inst.num_marshals
    w_row = d[0]
    order = sorted((j for j in range(len(w_row)) if w_row[j] > 1e-12),
                   key=lambda j: (-w_row[j], j))
    weights = np.array([w_row[j] for j in order])
    flights = [sched_flights[j] for j in order]
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    tie_eps = 1e-12 * max(1.0, prefix[-1])

    best_value = 0.0
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def suffix_top(t: int, slots: int) -> float:
        hi = min(t + slots, len(weights))
        return prefix[hi] - prefix[t]

    def rec(start: int, slots: int, value: float, covered: frozenset, mass_left: float):
        nonlocal best_value, best_set, nodes
        if value > best_value:
            best_value = value
            best_set = chosen.copy()
        if slots == 0 or start >= len(weights):
            return
        if value + min(suffix_top(start, slots), mass_left) <= best_value + tie_eps:
            return
        for t in range(start, len(weights)):
            nodes += 1
            if nodes > node_cap:
                raise DbrNodeCapError(f"best-response search passed {node_cap} nodes; "
                                      "shrink the instance for the column-generation baseline")
            if value + suffix_top(t, slots) <= best_value + tie_eps:
                return
            if flights[t] & covered:
                continue
            chosen.append(t)
            rec(t + 1, slots - 1, value + weights[t], covered | flights[t],
                mass_left - weights[t])
            chosen.pop()

    rec(0, min(k, len(weights)), 0.0, frozenset(), total_mass)
    matrix = np.zeros((k, len(w_row)), dtype=np.int64)
    for i, t in enumerate(best_set):
        matrix[i, order[t]] = 1
    return PureStrategy(matrix)


@dataclass
class CgResult:
    value: float
    weights: np.ndarray
    strategies: tuple[PureStrategy, ...]
    iterations: int


def fams_column_generation(inst: FamsInstance, tolerance: float = 1e-6,
                           max_iters: int = 1000, node_cap: int = DEFAULT_NODE_CAP,
                           cutoff_s: float | None = None) -> CgResult:
    """Exact zero-sum value by column generation.

    The restricted master is the maximin LP (``maximin_lp``) over generated
    pure strategies plus an always-feasible empty allocation; the slave
    prices columns by the master's flight duals through the exact
    best-response search, and the loop stops once no column improves by
    more than ``tolerance``.

    The master is built once.  Each priced column is appended to it with
    ``LinearProgram.add_column`` and the master is re-solved warm, by
    phase 2 from the last basis (see ``ara.lp``).  Where the master has tied
    optima, a warm solve may pick another optimal vertex than a cold one,
    and with it other duals, columns and iteration counts; the value is
    the same.  The value and weights returned are those of one cold
    ``exact_maximin`` over the generated columns, which must agree with the
    last warm value to 1e-9.
    """
    game = encode_fams(inst)
    start = time.monotonic()
    compiled = game.compiled  # targets are the flights, in flight order
    u_undef = compiled.payoff_undefended
    delta = compiled.payoff_defended - u_undef
    flight_of, col_of = np.nonzero(compiled.target_columns)  # flight-major
    mix_row = len(delta)  # master rows: the flights in flight order, then ``mix``

    empty = PureStrategy(np.zeros((inst.num_marshals, len(inst.schedules)), dtype=np.int64))
    columns = [empty]
    cov = compiled.coverages(empty)
    seen = {cov.tobytes()}
    master = maximin_lp(game, cov[None])
    state = None

    for it in range(1, max_iters + 1):
        if cutoff_s is not None and time.monotonic() - start > cutoff_s:
            raise SolveTimeout(cutoff_s)
        sol = solve_lp(master, warm=state)
        if sol.status != "optimal":
            raise GameError(f"column-generation master ended {sol.status}")
        state = sol.state
        y = np.maximum(sol.duals[:mix_row], 0.0)
        y[y < 1e-10] = 0.0  # dual dust otherwise litters the slave with tie weights
        mu = sol.duals[mix_row]

        # a schedule is priced at the summed mass of its flights; every sum
        # here runs in flight order
        masses = y * delta
        col_mass = np.bincount(col_of, weights=masses[flight_of], minlength=len(inst.schedules))
        d = np.tile(col_mass, (inst.num_marshals, 1))
        column = fams_dbr(inst, d, node_cap=node_cap, total_mass=sum(masses.tolist()))
        cov = compiled.coverages(column)
        util = u_undef + cov * delta
        slave_value = sum((y * util).tolist())
        # a priced column already present means numerical convergence
        if slave_value <= mu + tolerance or cov.tobytes() in seen:
            final = exact_maximin(game, columns)
            if abs(final.value - sol.objective_value) > 1e-9:
                raise GameError(f"column-generation master value {sol.objective_value} "
                                f"disagrees with the cold solve {final.value}")
            return CgResult(final.value, final.weights, tuple(columns), it)
        columns.append(column)
        seen.add(cov.tobytes())
        coeffs = {t: -u for t, u in enumerate(util.tolist()) if u != 0.0}
        coeffs[mix_row] = 1.0
        master.add_column(coeffs, 0.0)
    raise GameError(f"column generation did not converge in {max_iters} iterations")
