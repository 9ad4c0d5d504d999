"""Calibration control: a pure-CPU loop, timed serially and on every
core at once.

``calib.cpu_loop_s`` drifts with the machine, not the program, and
``calib.cpu_speedup`` is the ceiling any multi-process workload can
reach here — reported beside the workloads so box drift is not read
as a regression.

On a shared machine the loop's speed moves by a quarter over minutes,
and the workloads' speed moves with it.  :class:`Clock` therefore
samples the loop between units of work all through a run, and the
end-to-end timings are reported in *calibrated* seconds: what the run
would have measured on a machine where the loop takes
:data:`REFERENCE_LOOP_S`.

Run as a script, this file is one parallel child: it prints
``ready``, waits for a line on stdin, runs the loop and prints its own
loop time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

LOOP_ITERATIONS = 1_000_000

#: Loop time of the reference machine calibrated timings refer to.
REFERENCE_LOOP_S = 0.1


def cpu_loop(iterations: int = LOOP_ITERATIONS) -> int:
    total = 0
    for value in range(iterations):
        total = (total + value * value) % 1_000_003
    return total


def timed_loop() -> float:
    started = time.perf_counter()
    cpu_loop()
    return time.perf_counter() - started


class Clock:
    """Loop samples taken between units of work in one run."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(timed_loop())

    def loop_s(self, start: int = 0, end: Optional[int] = None) -> float:
        return statistics.mean(self.samples[start:end])

    def scale(self, start: int = 0, end: Optional[int] = None) -> float:
        """Multiply a time measured over ``samples[start:end]`` by
        this to get calibrated seconds."""
        return REFERENCE_LOOP_S / self.loop_s(start, end)


def calibrate(processes: int = 0, rounds: int = 3) -> Tuple[float, float]:
    """``(serial loop seconds, speedup on `processes` processes)``,
    each the median of ``rounds``; ``processes`` defaults to the
    core count."""
    processes = processes or os.cpu_count() or 1
    serial = statistics.median(timed_loop() for _ in range(rounds))
    walls = []
    for _ in range(rounds):
        children = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(processes)
        ]
        try:
            for child in children:
                if child.stdout.readline().strip() != "ready":
                    raise RuntimeError("calibration child failed to start")
            started = time.perf_counter()
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            for child in children:
                float(child.stdout.readline())
            walls.append(time.perf_counter() - started)
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
                child.stdin.close()
                child.stdout.close()
    speedup = processes * serial / statistics.median(walls)
    return serial, speedup


if __name__ == "__main__":
    print("ready", flush=True)
    sys.stdin.readline()
    print(timed_loop(), flush=True)
