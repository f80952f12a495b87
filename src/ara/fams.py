"""Air-marshal domain: schedules on columns, marshals on rows.

Covers the encoding into the abstract game, the schedule-zeroing repair
heuristic, the exact best-response search, and a plain column-generation
solver used as the exact baseline.

The best response (``fams_dbr``) is one branch and bound that packs
flight-disjoint schedules under one weight per schedule; a schedule's
flights are one int bitmask.  Forbidden pairs enter only through a
bipartite matching of the restricted schedules to their allowed marshals,
grown by one augmenting path per restricted pick, so an instance without
forbidden pairs does no matching work at all.  All four parts read what
they need of an instance from its ``FamsTables``, built once per instance
(``FamsInstance.tables``) and never written after.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from numbers import Integral

import numpy as np

from ara.core import (MAX_CELLS, AraGame, AssignmentConstraint, GameError, PureStrategy, Target,
                      check_ids)
from ara.exact import MaximinSolution, maximin_lp
from ara.lp import solve_lp
from ara.sampling import Pe0Form

# best-response search nodes before ``fams_dbr`` gives up
NODE_CAP = 10 ** 7
# column-generation iterations before ``fams_column_generation`` gives up
CG_MAX_ITERS = 1000
# column generation stops once no column improves the master by more than this
CG_TOL = 1e-6


class DbrNodeCapError(GameError):
    """Best-response search exceeded its node cap; shrink the instance."""


class SolveTimeout(Exception):
    """A solve passed its time cutoff."""


@dataclass(frozen=True)
class Schedule:
    id: str
    flights: frozenset[str]

    def __post_init__(self):
        check_ids("schedule", self.id)
        check_ids(f"schedule {self.id!r} flight", *self.flights)
        if not self.flights:
            raise GameError(f"schedule {self.id!r} covers no flights")
        object.__setattr__(self, "flights", frozenset(self.flights))


@dataclass(frozen=True)
class FlightSpec:
    id: str
    u_def: float
    u_undef: float

    def __post_init__(self):
        check_ids("flight", self.id)
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
        if isinstance(self.num_marshals, bool) or not isinstance(self.num_marshals, Integral):
            raise GameError(f"marshal count {self.num_marshals!r} is not an integer")
        if self.num_marshals < 1:
            raise GameError("need at least one marshal")
        if self.num_marshals * len(self.schedules) > MAX_CELLS:
            raise GameError(f"{self.num_marshals} marshals x {len(self.schedules)} schedules "
                            f"exceed the {MAX_CELLS} cell cap")
        sched_ids = {s.id for s in self.schedules}
        if len(sched_ids) != len(self.schedules):
            raise GameError("duplicate schedule ids")
        flight_ids = {f.id for f in self.flights}
        if len(flight_ids) != len(self.flights):
            raise GameError("duplicate flight ids")
        for s in self.schedules:
            unknown = s.flights - flight_ids
            if unknown:
                raise GameError(f"schedule {s.id!r} references unknown flight {sorted(unknown)[0]!r}")
        for m, sid in self.forbidden:
            if isinstance(m, bool) or not isinstance(m, Integral):
                raise GameError(f"forbidden pair ({m!r}, {sid!r}) names a marshal that is not "
                                "an integer")
            if not 0 <= m < self.num_marshals or sid not in sched_ids:
                raise GameError(f"forbidden pair ({m}, {sid!r}) references unknown marshal or schedule")

    @cached_property
    def tables(self) -> "FamsTables":
        return FamsTables(self)


def encode_fams(inst: FamsInstance) -> AraGame:
    """Rows are marshals, columns schedules.  Each marshal gets a unit row
    budget, forbidden pairs pin cells to zero, and each flight becomes a
    unit-weight target over every cell of every schedule containing it,
    with a matching at-most-one allocation constraint."""
    tables = inst.tables
    k, n = tables.k, tables.n
    grid = np.indices((k, n)).transpose(1, 2, 0)  # grid[i, j] is the pair (i, j)
    constraints = [AssignmentConstraint(grid[i], 0, 1, label=f"marshal {i}") for i in range(k)]
    for m, sid in sorted(inst.forbidden):
        constraints.append(AssignmentConstraint([[m, tables.col[sid]]], 0, 0,
                                                label=f"forbidden ({m}, {sid})"))
    ends = np.cumsum(np.bincount(tables.flight_of, minlength=len(inst.flights)))
    targets = []
    for f, cols in zip(inst.flights, np.split(tables.col_of, ends[:-1])):
        cells = grid[:, cols].reshape(-1, 2)  # row-major, as ``cols`` ascend
        if len(cells):
            constraints.append(AssignmentConstraint(cells, 0, 1, label=f"flight {f.id}"))
        targets.append(Target(f.id, cells, np.ones(len(cells)), f.u_def, f.u_undef))
    return AraGame(k, n, tuple(constraints), tuple(targets))


class FamsFixer:
    """Repair heuristic: zero out schedules that hit the most violated
    flights without touching any satisfied one; when a violated flight has
    no such schedule, drop one of its allocated schedules uniformly at
    random.  A freed marshal's row is left empty.

    ``fix_inequalities`` first folds the allocated schedules' flight masks
    (``FamsTables.masks``), one marshal at a time, into the flights covered
    at least once and at least twice; with none covered twice the matrix is
    returned as it came.  ``single`` holds the flights that have been at
    coverage 1, and a schedule with a marshal is blocked when its mask meets
    ``single``.  Only the schedules on a violated flight are walked flight
    by flight, for each one's marshals (lowest row first), the coverage of
    the violated flights (kept in id order) and the schedules flying each:
    every other allocated schedule flies only flights at coverage 1, so it
    is blocked from the start and no violated flight lists it.  Every flight
    of a schedule with a marshal has coverage at least 1, so one that is not
    blocked hits only violated flights and its score is its flight count.

    Coverage never rises, so ``single`` only grows: a violated flight joins
    it on falling to 1.  A flight in it that falls to 0 has lost its one
    schedule's last marshal, so no schedule it could block is left.  Hence
    a schedule that is blocked or has no marshal left never becomes clean
    again, and the clean schedules, sorted once by most flights then lowest
    column, are walked with one pointer that skips those.  One marshal comes
    off per step, from a schedule on a violated flight, and a step updates
    only the chosen schedule's violated flights.

    Ties: equal schedules go to the lowest column; the random drop serves
    the most covered flight, ties to the lowest flight id, and draws one
    ``rng.integers`` over that flight's allocated schedules in column order;
    the marshal taken off is the lowest row.

    Reads the instance's ``FamsTables`` (``FamsInstance.tables``, built
    once per instance and never written after): each schedule's flight
    mask (``masks``) and flights in flight order (``flights_of``), and each
    flight's rank in id order (``rank``).  The fixer keeps no state between
    calls."""

    def __init__(self, inst: FamsInstance):
        self.tables = inst.tables

    def fix_inequalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        masks, flights_of, rank = self.tables.masks, self.tables.flights_of, self.tables.rank
        k, n = self.tables.k, self.tables.n
        if x.shape != (k, n):
            raise GameError(f"sample shape {x.shape} is not {k} marshals x {n} schedules")
        flat = (x != 0).ravel().nonzero()[0]  # row-major, so rows ascend
        seated: dict[int, list[int]] = {}  # per allocated schedule, its marshals
        once = twice = 0
        for t, units in zip(flat.tolist(), x.ravel()[flat].tolist()):
            i, j = divmod(t, n)
            mask = masks[j]
            twice |= mask if units > 1 else once & mask
            once |= mask
            seated.setdefault(j, []).extend([i] * units)
        if not twice:
            return x
        x = x.copy()
        single = once & ~twice
        hit = sorted(j for j in seated if masks[j] & twice)
        violated: dict[int, int] = {}  # coverage of each violated flight
        flying: dict[int, list[int]] = {}  # its allocated schedules, ascending
        for j in hit:
            units = len(seated[j])
            for f in flights_of[j]:
                if twice >> f & 1:
                    if f in violated:
                        violated[f] += units
                        flying[f].append(j)
                    else:
                        violated[f] = units
                        flying[f] = [j]
        # in id order, so the first most covered flight has the lowest id
        violated = {f: violated[f] for f in sorted(violated, key=rank.__getitem__)}
        # the sort is stable, so equal flight counts keep their ascending columns
        clean = sorted((j for j in hit if not masks[j] & single),
                       key=lambda j: -len(flights_of[j]))
        pos = 0
        while violated:
            while pos < len(clean) and (not seated[clean[pos]] or masks[clean[pos]] & single):
                pos += 1
            if pos < len(clean):
                best = clean[pos]
            else:
                worst = max(violated, key=violated.__getitem__)
                options = [j for j in flying[worst] if seated[j]]
                best = options[rng.integers(len(options))]
            x[seated[best].pop(0), best] -= 1
            for f in flights_of[best]:
                c = violated.get(f)  # None at coverage 1: ``best`` was its only schedule
                if c == 2:
                    del violated[f]
                    single |= 1 << f
                elif c:
                    violated[f] = c - 1
        return x

    def fix_equalities(self, x: np.ndarray, pe0: Pe0Form, rng: np.random.Generator) -> np.ndarray:
        """Return ``x``: budgets are at most one and forbidden cells stay at
        zero (``encode_fams``), so no equality has a positive bound; a row
        over its budget is refused by ``estimate_mixed``'s validity check."""
        return x


class FamsTables:
    """What the module reads of an instance, derived once: the sizes ``k``
    and ``n``, each schedule's column by id (``col``), its flights as
    ascending positions in ``inst.flights`` (``flights_of``) and as one int
    bitmask, bit t for ``inst.flights[t]`` (``masks``), its allowed
    marshals, None for an unrestricted one (``allowed``), each flight's
    rank in id order (``rank``), and the (flight, schedule) pairs in the
    order ``np.nonzero`` lists a flight x schedule incidence (``flight_of``,
    ``col_of``).  Built once per instance (``FamsInstance.tables``) and
    shared by every reader, so the two arrays are read-only and the rest
    are tuples, but for ``col``: a plain dict, so that an instance still
    pickles once its tables are built."""

    def __init__(self, inst: FamsInstance):
        self.k, self.n = inst.num_marshals, len(inst.schedules)
        self.col = {s.id: j for j, s in enumerate(inst.schedules)}
        index = {f.id: t for t, f in enumerate(inst.flights)}
        self.flights_of = tuple(tuple(sorted(index[f] for f in s.flights))
                                for s in inst.schedules)
        self.masks = tuple(sum(1 << f for f in flights) for flights in self.flights_of)
        banned = [set() for _ in inst.schedules]
        for m, sid in inst.forbidden:
            banned[self.col[sid]].add(m)
        self.allowed = tuple(tuple(m for m in range(self.k) if m not in b) if b else None
                             for b in banned)
        by_id = {fid: pos for pos, fid in enumerate(sorted(index))}
        self.rank = tuple(by_id[f.id] for f in inst.flights)
        # the pairs come schedule by schedule, so a stable sort by flight
        # leaves the schedules of each flight ascending
        flight = np.fromiter(chain.from_iterable(self.flights_of), np.int64)
        order = np.argsort(flight, kind="stable")
        self.flight_of = flight[order]
        self.col_of = np.repeat(np.arange(self.n), list(map(len, self.flights_of)))[order]
        self.flight_of.flags.writeable = self.col_of.flags.writeable = False


def fams_dbr(tables: FamsTables, w: np.ndarray, total_mass: float) -> PureStrategy:
    """Exact defender best response: the pure strategy of largest summed
    weight ``w[j]`` over its allocated schedules j.

    A pure strategy is a set of flight-disjoint schedules, one marshal each,
    so the search is a branch and bound over schedules in order of falling
    weight, ties to the lower column: each node extends the packing with a
    later schedule, while at most ``slots`` marshals remain.  It is bounded
    by the top ``slots`` weights left and by ``total_mass`` minus the packed
    weight (the summed per-flight masses when ``w[j]`` sums the masses of
    j's flights, as in column generation: no packing beats the uncovered
    mass).  The flights of a packing are one int bitmask, so the conflict
    test is one AND.  Past ``NODE_CAP`` nodes it raises ``DbrNodeCapError``.

    A packing of at most k schedules can be flown exactly when its
    restricted schedules (those some marshal may not fly) can be matched to
    distinct allowed marshals; the unrestricted ones take the marshals left
    over (Hall's theorem).  So only a restricted pick does matching work:
    one augmenting-path step (Kuhn), undone on backtrack, and the pick is
    skipped when no path exists; a schedule no marshal may fly never enters
    the search.  Without forbidden pairs no schedule is restricted, and the
    i-th schedule of the best packing, in weight order, goes to marshal i.
    """
    k, n = tables.k, tables.n
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise GameError(f"weight shape {w.shape} does not match {(n,)}")
    if np.any(w < 0):
        raise GameError("best-response weights must be nonnegative")
    allowed = tables.allowed
    # Python floats: the same sums as in NumPy, without the scalar overhead;
    # the sort is stable, so equal weights keep their ascending columns
    weight_of = w.tolist()
    order = sorted((j for j in np.flatnonzero(w > 1e-12).tolist() if allowed[j] != ()),
                   key=weight_of.__getitem__, reverse=True)
    masks = [tables.masks[j] for j in order]
    weights = [weight_of[j] for j in order]
    prefix = list(accumulate(weights, initial=0.0))
    size = len(weights)
    tie_eps = 1e-12 * max(1.0, prefix[-1])
    cap = NODE_CAP

    best_value, best_set, best_owner = 0.0, [], [None] * k
    bar = best_value + tie_eps  # a bound at or below this cannot beat the best
    chosen: list[int] = []
    owner: list[int | None] = [None] * k  # the restricted schedule each marshal flies
    nodes = 0

    def augment(j: int, seen: set) -> bool:
        for m in allowed[j]:
            if m not in seen:
                seen.add(m)
                if owner[m] is None or augment(owner[m], seen):
                    owner[m] = j
                    return True
        return False

    def rec(start: int, slots: int, value: float, covered: int, mass_left: float):
        nonlocal best_value, best_set, best_owner, bar, nodes
        if value > best_value:
            best_value, best_set, best_owner = value, chosen.copy(), owner.copy()
            bar = best_value + tie_eps
        if slots == 0 or start >= size:
            return
        # the top ``slots`` weights from ``start`` on, capped by the mass left
        end = start + slots
        top = prefix[end if end < size else size] - prefix[start]
        if value + (mass_left if mass_left < top else top) <= bar:
            return
        for t in range(start, size):
            nodes += 1
            if nodes > cap:
                raise DbrNodeCapError(f"best-response search passed {cap} nodes; "
                                      "shrink the instance for the column-generation baseline")
            end = t + slots
            if value + (prefix[end if end < size else size] - prefix[t]) <= bar:
                return
            if masks[t] & covered:
                continue
            j = order[t]
            saved = owner.copy() if allowed[j] is not None else None
            if saved is not None and not augment(j, set()):
                continue  # a failed search leaves ``owner`` as it was
            chosen.append(j)
            rec(t + 1, slots - 1, value + weights[t], covered | masks[t],
                mass_left - weights[t])
            chosen.pop()
            if saved is not None:
                owner[:] = saved

    rec(0, min(k, size), 0.0, 0, total_mass)
    matrix = np.zeros((k, n), dtype=np.int64)
    free = iter([m for m in range(k) if best_owner[m] is None])
    for j in best_set:
        matrix[next(free) if allowed[j] is None else best_owner.index(j), j] = 1
    return PureStrategy(matrix)


@dataclass(frozen=True)
class CgResult(MaximinSolution):
    iterations: int  # master solves


def fams_column_generation(inst: FamsInstance, cutoff_s: float) -> CgResult:
    """Exact zero-sum value by column generation.

    The restricted master is the maximin LP (``maximin_lp``) over generated
    pure strategies plus an always-feasible empty allocation; the slave
    prices columns by the master's flight duals through the exact
    best-response search, and the loop stops once no column improves by
    more than ``CG_TOL``.  Past ``CG_MAX_ITERS`` iterations it raises
    ``GameError``, and a best-response search past ``NODE_CAP`` nodes
    raises ``DbrNodeCapError``.

    The master is built once.  Each priced column is appended to it with
    ``LinearProgram.add_column`` and the master is re-solved warm, by
    phase 2 from the last basis (see ``ara.lp``).  Where the master has tied
    optima, a warm solve may pick another optimal vertex than a cold one,
    and with it other duals, columns and iteration counts; the value is
    the same.  Each column's flight coverage is counted once, when it is
    priced, and kept in one dict keyed by its bytes, which is also the
    duplicate check.  The value and weights returned come from one cold
    solve of ``maximin_lp`` over those coverages, in column order: the
    value must agree with the last warm value to 1e-9, and the weights are
    clipped at zero and normalized, as the enumeration oracle's are.
    """
    game = encode_fams(inst)
    start = time.monotonic()
    compiled = game.compiled  # targets are the flights, in flight order
    u_undef = compiled.payoff_undefended
    delta = compiled.payoff_defended - u_undef
    tables = inst.tables
    flight_of, col_of = tables.flight_of, tables.col_of
    mix_row = len(delta)  # master rows: the flights in flight order, then ``mix``

    columns = [PureStrategy(np.zeros((tables.k, tables.n), dtype=np.int64))]
    cov = np.zeros(mix_row)
    covs = {cov.tobytes(): cov}  # each column's flight coverage, in column order
    master = maximin_lp(game, cov[None])
    state = None

    for it in range(1, CG_MAX_ITERS + 1):
        if time.monotonic() - start > cutoff_s:
            raise SolveTimeout(f"solve exceeded the {cutoff_s}s cutoff")
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
        col_mass = np.bincount(col_of, weights=masses[flight_of], minlength=tables.n)
        column = fams_dbr(tables, col_mass, sum(masses.tolist()))
        # each flight's marshals, summed over the schedules flying it.  A
        # flight is a unit-weight target over every cell of its schedules
        # (``encode_fams``), so ``compiled.coverages(column)`` sums the same
        # small integers, and both are exact in any order
        cov = np.bincount(flight_of, weights=column.values.sum(axis=0)[col_of], minlength=mix_row)
        util = u_undef + cov * delta
        slave_value = sum((y * util).tolist())
        # a priced column already present means numerical convergence
        if slave_value <= mu + CG_TOL or cov.tobytes() in covs:
            cold = solve_lp(maximin_lp(game, np.array(list(covs.values()))))
            if cold.status != "optimal":
                raise GameError(f"column-generation cold solve ended {cold.status}")
            if abs(cold.objective_value - sol.objective_value) > 1e-9:
                raise GameError(f"column-generation master value {sol.objective_value} "
                                f"disagrees with the cold solve {cold.objective_value}")
            weights = np.maximum(cold.values[:len(columns)], 0.0)
            return CgResult(cold.objective_value, weights / weights.sum(), tuple(columns), it)
        columns.append(column)
        covs[cov.tobytes()] = cov
        coeffs = {t: -u for t, u in enumerate(util.tolist()) if u != 0.0}
        coeffs[mix_row] = 1.0
        master.add_column(coeffs, 0.0)
    raise GameError(f"column generation did not converge in {CG_MAX_ITERS} iterations")
