"""Solve reports emitted by the CLI and the benchmark harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ara.core import GameError

VALUE_BOUND_TOL = 1e-6

METHODS = ("rand", "exact", "cg", "marginal-bound")


@dataclass
class SolveReport:
    method: str
    value: float
    upper_bound: float
    wall_ms: int
    seed: int | None
    instance_digest: str
    sample_failures: int = 0
    detection_ratio: float | None = None  # TSG: min per-category ratio across samples

    def __post_init__(self):
        if self.method not in METHODS:
            raise GameError(f"unknown method {self.method!r}")

    @property
    def c_measured(self) -> float | None:
        if self.detection_ratio is None or self.detection_ratio <= 0:
            return None
        return 1.0 / self.detection_ratio

    def to_dict(self) -> dict:
        if self.value > self.upper_bound + VALUE_BOUND_TOL:
            raise GameError(f"report value {self.value} exceeds its upper bound "
                            f"{self.upper_bound}")
        data = asdict(self)
        data["c_measured"] = self.c_measured
        return data

    def write(self, path: str) -> None:
        data = self.to_dict()  # before the file is opened, so a refused report writes none
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
