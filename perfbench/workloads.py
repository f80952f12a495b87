"""Workload definitions and seeded instance set-up for the benchmark.

Every workload is a fixed number of instances drawn with ``ara.generators``
from candidate generator seeds ``seed * 1000 + t``.  Each instance then goes
through ``ara.jsonio`` the way ``ara solve`` reads a file: serialise, parse,
detect the family, rebuild the instance and take its digest.

``ara`` is imported from this checkout's ``src`` directory: call
``ensure_ara`` before ``make_instances``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CANDIDATES_PER_SEED = 1000

class SetupError(Exception):
    """The checkout holds no usable ``ara`` sources or no instances could be made."""


def ensure_ara():
    """Import ``ara`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ara" / "__init__.py").is_file():
        raise SetupError(f"no ara sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ara
    if Path(ara.__file__).resolve().parent != (SRC / "ara").resolve():
        raise SetupError(f"imported ara from {ara.__file__}, not from {SRC}")
    return ara


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # "fams" | "tsg"
    methods: tuple       # run_method methods applied to every instance, in order
    instances: int       # distinct instances per round
    samples: int         # rand sample count (0 when rand is not used)
    gen: dict = field(default_factory=dict)  # GenConfig sizing


WORKLOADS = {
    # one large dense-simplex LP per instance plus FamsFixer repair
    "fams-rand": Workload("fams-rand", "fams", ("rand",), instances=9, samples=300,
                          gen=dict(flights=100, schedules=200, targets_per_schedule=3,
                                   resources=20)),
    # comb rounding, TsgFixer and the detection ratio dominate; the LP is small
    "tsg-rand": Workload("tsg-rand", "tsg", ("rand",), instances=60, samples=100,
                         gen=dict(flights=40, risk_levels=2, resource_types=3, team_types=3)),
    # many small master LPs and best-response searches; the marginal bound
    # gives the integrality gap
    "fams-cg": Workload("fams-cg", "fams", ("cg", "marginal-bound"), instances=72, samples=0,
                        gen=dict(flights=18, schedules=36, targets_per_schedule=2,
                                 resources=7)),
}


@dataclass
class Item:
    """One instance as the solver sees it after the JSON round trip."""

    gen_seed: int
    family: str
    instance: object     # parsed back from JSON
    original: object     # as generated, for the round-trip equality check
    digest: str


@dataclass
class SetupReport:
    items: list
    candidates: int      # generator seeds tried
    uncovered: int       # candidates rejected for a flight in no schedule
    infeasible: int      # candidates the generator refused
    gen_s: float         # CPU seconds in ara.generators (incl. rejected candidates)
    roundtrip_s: float   # CPU seconds in the JSON round trip and digests


def _generate(work: Workload, gen_seed: int):
    from ara.generators import GenConfig, gen_fams, gen_tsg
    cfg = GenConfig(seed=gen_seed, family=work.family, **work.gen)
    return gen_fams(cfg) if work.family == "fams" else gen_tsg(cfg)


def _uncovered_flights(inst) -> int:
    covered = set().union(*(s.flights for s in inst.schedules))
    return sum(1 for f in inst.flights if f.id not in covered)


def make_instances(work: Workload, seed: int) -> SetupReport:
    """Generate the workload's instances for ``seed`` and load them back.

    FAMS candidates with a flight in no schedule are skipped: that flight's
    undefended payoff pins the game value and leaves the LP trivial.
    """
    from ara.core import GameError
    from ara.jsonio import detect_family, fams_from_json, fams_to_json, instance_digest
    from ara.jsonio import tsg_from_json, tsg_to_json

    generated = []
    uncovered = infeasible = 0
    t0 = time.process_time()
    for t in range(CANDIDATES_PER_SEED):
        if len(generated) == work.instances:
            break
        gen_seed = seed * CANDIDATES_PER_SEED + t
        try:
            inst = _generate(work, gen_seed)
        except GameError:
            infeasible += 1
            continue
        if work.family == "fams" and _uncovered_flights(inst):
            uncovered += 1
            continue
        generated.append((gen_seed, inst))
    if len(generated) < work.instances:
        raise SetupError(f"{work.name}: only {len(generated)} usable instances among "
                         f"{CANDIDATES_PER_SEED} candidates")
    t1 = time.process_time()

    items = []
    to_json = fams_to_json if work.family == "fams" else tsg_to_json
    from_json = {"fams": fams_from_json, "tsg": tsg_from_json}
    for gen_seed, inst in generated:
        text = json.dumps(to_json(inst), indent=2, sort_keys=True)
        data = json.loads(text)
        family = detect_family(data)
        items.append(Item(gen_seed, family, from_json[family](data), inst,
                          instance_digest(data)))
    t2 = time.process_time()
    return SetupReport(items, len(generated) + uncovered + infeasible, uncovered, infeasible,
                       t1 - t0, t2 - t1)
