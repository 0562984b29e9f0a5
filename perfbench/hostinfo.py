"""Host metadata, a fixed calibration round and the host-scaled clock.

The metadata and calibration are printed with every benchmark result so
that a number measured on another machine can be told apart from a
regression: compare the calibration times first, then the metrics.
:class:`HostClock` scales timings by the host's current speed.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro.rng import make_rng

#: The calibration kernels run on fixed data, the same on every run;
#: no caller's seed reaches them (hence the RNG002 suppressions below).
_CALIBRATION_SEED = 0


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown"
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(root: Path) -> dict:
    """Cores, CPU, interpreter and library versions, numba, commit."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(root),
    }


def calibration(repeats: int = 5) -> dict:
    """Median seconds of a fixed pure-Python and a fixed numpy round."""
    python_s = []
    numpy_s = []
    rng = make_rng(_CALIBRATION_SEED)  # lint: disable=RNG002 # fixed data
    values = rng.random(1_000_000)
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        python_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.sort(values)
        numpy_s.append(time.perf_counter() - start)
    return {
        "python_s": statistics.median(python_s),
        "numpy_s": statistics.median(numpy_s),
    }


class HostClock:
    """Times units of work, also in seconds of a reference-speed host.

    Other tenants of a shared host make its speed drift by tens of
    percent within a minute.  A fixed pure-Python plus numpy kernel,
    timed after every unit, tracks that drift: a unit's scaled time is
    its wall time times :data:`REFERENCE_S` over the mean of the kernel
    times just before and just after it.  The kernel runs outside the
    unit, and no program code runs inside the kernel.
    """

    #: Median seconds of one kernel pass on the host the benchmark was
    #: defined on (2-vCPU Xeon, no numba); fixes the scale's unit only.
    REFERENCE_S = 0.0014
    #: Share of a unit's wall time spent timing the kernel after it: a
    #: longer unit gets a longer, steadier reading (at least 3 passes).
    SHARE = 0.01
    #: Seconds between the kernel passes :meth:`time_sampled` takes.
    SAMPLE_INTERVAL = 0.05

    def __init__(self) -> None:
        rng = make_rng(_CALIBRATION_SEED)  # lint: disable=RNG002 # fixed data
        self._values = rng.random(100_000)
        self._index = rng.integers(0, 100_000, size=50_000)
        self._last = self.calibrate(25)

    def _pass(self, clock) -> float:
        """Seconds of one pass of the fixed kernel, read on ``clock``."""
        start = clock()
        total = 0
        for i in range(20_000):
            total += i * i
        self._values.take(self._index).sum()
        return clock() - start

    def calibrate(self, passes: int = 3) -> float:
        """Median seconds of ``passes`` passes of the fixed kernel."""
        return statistics.median(self._pass(time.perf_counter) for _ in range(passes))

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; its result, wall seconds and scaled seconds."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        now = self.calibrate(max(3, int(self.SHARE * wall / self.REFERENCE_S)))
        scaled = wall * self.REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return result, wall, scaled

    def time_sampled(self, fn, *args, **kwargs):
        """Like :meth:`time`, for a unit that lasts seconds.

        Readings before and after such a unit miss the drift within it.
        So a thread passes the kernel every :data:`SAMPLE_INTERVAL` while
        ``fn`` runs, and the unit's wall time is scaled by
        :data:`REFERENCE_S` over the median pass.  A pass is read in the
        thread's CPU time, which waiting for the GIL or for the core does
        not count, so it reads the speed of the core it ran on: the
        caller keeps the work, in this process or its children, on that
        core.
        """
        passes = []
        done = threading.Event()

        def sample():
            while not done.wait(self.SAMPLE_INTERVAL):
                passes.append(self._pass(time.thread_time))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            done.set()
            sampler.join()
        if not passes:  # a unit shorter than one interval
            passes.append(self._pass(time.thread_time))
        return result, wall, wall * self.REFERENCE_S / statistics.median(passes)
