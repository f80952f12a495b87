"""JSON formats for game and domain instances.

Family is detected from the top-level keys: ``schedules`` marks an air
marshal instance, ``categories`` a screening instance, and ``k`` a raw
allocation game.  Target weights serialize as a list parallel to ``cells``.
A game file lists cells as [row, col] pairs in ascending order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ara.core import AdversaryType, AraGame, AssignmentConstraint, Target
from ara.fams import FamsInstance, FlightSpec, Schedule
from ara.tsg import CategorySpec, ResourceSpec, RiskLevel, TeamSpec, TsgInstance


class ParseError(Exception):
    def __init__(self, where: str, detail: str):
        super().__init__(f"{where}: {detail}")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def instance_digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]


def game_to_json(game: AraGame) -> dict:
    """Cells in ascending order; ``coeffs`` lists [row, col, coefficient]
    for the cells whose coefficient is not 1, and is left out when none is."""
    cons = []
    for c in game.constraints:
        order = np.lexsort(c.cells.T[::-1])
        entry = {"cells": c.cells[order].tolist(), "lower": c.lower, "upper": c.upper}
        if c.label:
            entry["label"] = c.label
        if c.coeffs is not None and np.any(c.coeffs != 1):
            entry["coeffs"] = [[i, j, int(m)] for (i, j), m in
                               zip(c.cells[order].tolist(), c.coeffs[order].tolist()) if m != 1]
        cons.append(entry)
    targets = []
    for t in game.targets:
        order = np.lexsort(t.cells.T[::-1])
        targets.append({"id": t.id, "cells": t.cells[order].tolist(),
                        "weights": t.weights[order].tolist(),
                        "u_def": t.payoff_defended, "u_undef": t.payoff_undefended})
    types = [{"id": a.id, "p": a.probability, "targets": sorted(a.targets)}
             for a in game.adversary_types]
    return {"k": game.k, "n": game.n, "constraints": cons, "targets": targets,
            "adversary_types": types}


def game_from_json(data: dict) -> AraGame:
    try:
        cons = []
        for c in data["constraints"]:
            if not isinstance(c, dict):
                raise ParseError("game", f"constraint {c!r} is not a JSON object")
            sparse = {(i, j): m for i, j, m in c.get("coeffs", [])}
            coeffs = [sparse.pop(tuple(cell), 1) for cell in c["cells"]] if sparse else None
            if sparse:
                raise ParseError("game", f"constraint {c.get('label', '')!r} has coefficients "
                                 "outside its cells")
            cons.append(AssignmentConstraint(c["cells"], c["lower"], c["upper"],
                                             c.get("label", ""), coeffs))
        targets = tuple(Target(t["id"], t["cells"], t["weights"], t["u_def"], t["u_undef"])
                        for t in data["targets"])
        types = tuple(AdversaryType(a["id"], a["p"], frozenset(a["targets"]))
                      for a in data.get("adversary_types", []))
        return AraGame(data["k"], data["n"], tuple(cons), targets, types)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("game", str(exc)) from exc


def fams_to_json(inst: FamsInstance) -> dict:
    return {"marshals": inst.num_marshals,
            "schedules": [{"id": s.id, "flights": sorted(s.flights)} for s in inst.schedules],
            "flights": [{"id": f.id, "u_def": f.u_def, "u_undef": f.u_undef}
                        for f in inst.flights],
            "forbidden": [list(p) for p in sorted(inst.forbidden)]}


def fams_from_json(data: dict) -> FamsInstance:
    try:
        return FamsInstance(
            data["marshals"],
            tuple(Schedule(s["id"], frozenset(s["flights"])) for s in data["schedules"]),
            tuple(FlightSpec(f["id"], f["u_def"], f["u_undef"]) for f in data["flights"]),
            frozenset((m, s) for m, s in data.get("forbidden", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("fams instance", str(exc)) from exc


def tsg_to_json(inst: TsgInstance) -> dict:
    return {"resources": [{"id": r.id, "capacity": r.capacity} for r in inst.resources],
            "teams": [{"id": t.id, "members": list(t.members), "eff": t.effectiveness}
                      for t in inst.teams],
            "categories": [{"id": c.id, "risk": c.risk, "flight": c.flight, "n": c.passengers,
                            "u_def": c.u_def, "u_undef": c.u_undef} for c in inst.categories],
            "risks": [{"id": r.id, "p": r.probability} for r in inst.risk_levels]}


def tsg_from_json(data: dict) -> TsgInstance:
    try:
        return TsgInstance(
            tuple(ResourceSpec(r["id"], r["capacity"]) for r in data["resources"]),
            tuple(TeamSpec(t["id"], tuple(t["members"]), t["eff"]) for t in data["teams"]),
            tuple(CategorySpec(c["id"], c["risk"], c["flight"], c["n"], c["u_def"], c["u_undef"])
                  for c in data["categories"]),
            tuple(RiskLevel(r["id"], r["p"]) for r in data["risks"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("tsg instance", str(exc)) from exc


def detect_family(data: dict) -> str:
    if not isinstance(data, dict):
        raise ParseError("instance", f"expected a JSON object, not {type(data).__name__}")
    if "schedules" in data:
        return "fams"
    if "categories" in data:
        return "tsg"
    if "k" in data:
        return "ara"
    raise ParseError("instance", "cannot detect family from keys "
                     + ", ".join(sorted(data)))


def read_json(path: str):
    """A JSON file's contents; a missing file or bad JSON is a ``ParseError``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}: {exc.msg}") from exc


def parse_instance(data: dict):
    """An instance file's parsed contents; returns (family, instance)."""
    family = detect_family(data)
    if family == "fams":
        return family, fams_from_json(data)
    if family == "tsg":
        return family, tsg_from_json(data)
    return family, game_from_json(data)
