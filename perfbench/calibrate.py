"""A fixed piece of reference work that tells how fast the host runs now.

The benchmark runs on a few cores of a shared host.  The CPU time of one and
the same solve moves by 15-30 % from one repeat to the next, and the host's
speed drifts over minutes, as other tenants load the caches and the memory
bus.  ``reference_s`` times work that does not touch ``ara``: the NumPy
steps of a simplex pivot on a dense array of the size of the ``fams-rand``
tableau.  Its CPU time follows the host's speed and nothing else.

The benchmark samples it between solves, for a fixed share of the solve time,
in a child interpreter that runs on the same vCPUs while the benchmark
waits, and reports times at the reference speed: measured CPU seconds x
``NOMINAL_S`` / mean reference time of the run (``speed_factor``).  The
samples are taken in proportion to the solve time, so their mean weighs the
host's slow and fast spells as the solves met them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# about the median CPU seconds of one reference_s() on a 2-vCPU Xeon KVM
# guest; a fixed constant, so that times at reference speed are comparable
# between runs and keep the unit of seconds
NOMINAL_S = 0.025
CHILD_TIMEOUT_S = 10

_ROWS, _COLS, _PIVOTS = 220, 4000, 12

_arrays: tuple | None = None  # made on first use, in the child only


def _pivots() -> float:
    """The NumPy steps of a dense simplex pivot: reduced costs (a matrix-
    vector product), a fresh outer-product array and the tableau update."""
    global _arrays
    if _arrays is None:
        tableau = np.random.default_rng(20171112).random((_ROWS, _COLS)) + 1.0
        _arrays = tableau, np.linspace(1.0, 2.0, _COLS), np.empty_like(tableau)
    tableau, costs, work = _arrays
    acc = 0.0
    for k in range(_PIVOTS):
        r, c = (k * 37) % _ROWS, (k * 611) % _COLS
        red = costs - tableau.T @ costs[:_ROWS]
        factors = tableau[:, c].copy()
        factors[r] = 0.0
        # always from the same array, so that no value grows, shrinks to a
        # denormal or turns into NaN
        np.subtract(tableau, np.outer(factors, tableau[r] / tableau[r, c]), out=work)
        acc += float(red[c]) + float(work[r, c])
    return acc


def reference_s() -> float:
    """CPU seconds of one fixed piece of reference work."""
    t0 = time.process_time()
    _pivots()
    return time.process_time() - t0


class SpeedProbe:
    """Reference samples taken between solves, for ``share`` of their CPU time.

    The reference work runs in a child interpreter, one sample at a time
    while this process waits, so that its arrays stay out of this process's
    peak resident set.  ``close`` ends the child.
    """

    def __init__(self, share: float):
        self.share = share
        self.samples: list[float] = []
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()

    def _sample(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self._child.wait()}")
        return float(line)

    def after(self, solve_cpu_s: float) -> None:
        """Sample after a solve that took ``solve_cpu_s``, at least once."""
        spent = 0.0
        while True:
            t = self._sample()
            self.samples.append(t)
            spent += t
            if spent >= self.share * solve_cpu_s:
                return

    def speed_factor(self) -> float:
        """NOMINAL_S over the run's mean reference time: multiply a CPU
        time measured in this run by it to get the time at reference speed."""
        return NOMINAL_S / statistics.fmean(self.samples)


def serve() -> None:
    """Child side: one reference sample per line read, until stdin closes."""
    reference_s()  # warm-up: first-touch of the arrays
    for _line in sys.stdin:
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    serve()
