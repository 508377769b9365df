"""What a result says about where it was measured, and how fast that place is.

Numbers from different boxes must never be compared silently, so every
JSON the ladder writes carries the commit, the interpreter, the machine
and a calibration figure taken before and after the set.

The calibration loop also runs *during* every timed cell, in short bursts
from a timer signal (:class:`CalibrationSampler`).  On a shared box the
CPU's own speed drifts by 10-20 % over seconds to minutes; bursts sampled
inside the timed region track that drift (correlation 0.93 with the
cell's own speed on the box this was written on), which is what makes
``sim_ops_per_mstep`` steady where ``sim_ops_per_s`` is not.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Steps of one calibration burst (about 13 ms) and the seconds between
#: bursts inside a timed region (so about 5 % of it, which is subtracted).
BURST_STEPS = 400_000
BURST_INTERVAL_S = 0.25


def calibration_burst() -> float:
    """Seconds one burst of the fixed pure-Python loop takes right now."""
    started = perf_counter()
    total = 0
    for i in range(BURST_STEPS):
        total += i & 7
    return perf_counter() - started


def host_calib_ops_per_s() -> float:
    """Calibration steps per second over five back-to-back bursts.

    Not a metric of the program: a drift in this number between two sets
    means the box changed, not the code.
    """
    return 5 * BURST_STEPS / sum(calibration_burst() for _ in range(5))


class CalibrationSampler:
    """Calibration bursts every ``BURST_INTERVAL_S`` while a region runs.

    A context manager for the main thread.  The bursts run from the
    ``SIGALRM`` handler, between bytecodes of whatever is being timed; they
    touch no state of the program.  ``inside_s`` is the time they took,
    for the caller to subtract from the region's wall.  One burst before
    and one after the region keep ``steps_per_s`` defined for regions
    shorter than the interval; those two are not part of ``inside_s``.
    """

    def __init__(self) -> None:
        self.inside_s = 0.0
        self._bursts = 0
        self._burst_s = 0.0
        self._armed = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        took = calibration_burst()
        self._bursts += 1
        self._burst_s += took
        if self._armed:
            self.inside_s += took

    def __enter__(self) -> "CalibrationSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S, BURST_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._armed = False
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    @property
    def steps_per_s(self) -> float:
        return self._bursts * BURST_STEPS / self._burst_s


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "uname": platform.uname()._asdict(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    }
