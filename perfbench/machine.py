"""Machine-speed reference: a fixed pure-Python job timed between measured rounds.

On a shared VM the speed of a core drifts by up to ~1.8x over tens of
seconds as neighbours come and go, and every round of a run moves with it.
Timing this job just before and after a round measures the machine's speed
at that moment; run.py scales each round's query-phase time, and the
set-up time, by ``NOMINAL_S / reference`` so that they are reported at a
fixed machine speed. The job is benchmark code, so no change to the package can move it.
It runs in a helper process of its own so that its memory does not count
in the measured process's peak RSS.

Helper protocol (``python3 machine.py``): one line in, one timing out.
"""

from __future__ import annotations

import subprocess
import sys
import time

# The job's time on the reference machine when it is not contended
# (2.1 GHz Xeon VM, Python 3.11.7); it fixes the unit of scaled throughput.
NOMINAL_S = 0.010
REPS = 3


def _job() -> list[int]:
    table: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i % 977, i % 131)
        table[key] = table.get(key, 0) + i
    return sorted(table.values())


def reference_s() -> float:
    """Fastest of REPS timings of the reference job, in seconds."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - start)
    return best


class Reference:
    """A helper process that times the reference job on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_s(), flush=True)
