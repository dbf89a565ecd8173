"""Measurement primitives: timed rounds over a workload's ops, the host's
speed, and the statistics.

A round runs every op of a workload once, in order, closed loop (the next op
starts when the previous one returns). Each op is timed on its own; an op that
raises is recorded as failed and the round goes on. Outputs are judged after
the round has been timed, so the benchmark's own checks stay out of the
latencies.

The host this benchmark was built on changes speed by up to 2x, for stretches
from a fraction of a second to minutes. `HostSpeed` times a fixed reference
kernel between ops and scales every timing to the kernel's speed at that
moment (README.md).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field

# the benchmark is one process: BLAS gets one thread
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REF_NOMINAL_S = 4.5e-4  # the reference kernel's time on the reference host when quiet
REF_EVERY_S = 0.05  # the least time between two reference samples
REF_BURST = 5  # kernel runs per sample; a sample is their median


@dataclass(frozen=True)
class Op:
    """One operation: `run` does the timed work, `judge` checks its result."""

    run: object  # () -> result
    judge: object  # (result or Raised) -> Outcome


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of an op that raised."""

    exc: BaseException

    def describe(self) -> str:
        return f"raised {type(self.exc).__name__}: {self.exc}"


@dataclass(frozen=True)
class Outcome:
    """Verdict on one op's result.

    failed: the op missed its goal as its workload defines it.
    outputs/unresolved: results emitted, and how many of them carry neither a
    witness nor a certified refutation.
    text: the emitted JSON, hashed into the round digest.
    problems: correctness violations; any one makes the run incorrect.
    cli_bytes: bytes fed to and printed by the CLI.
    """

    failed: bool
    text: str
    outputs: int = 1
    unresolved: int = 0
    problems: tuple = ()
    cli_bytes: int = 0


def reference_kernel() -> float:
    """Fixed work of the kind udgraph does: interpreted loops and tiny numpy arrays."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    acc = 0.0
    for _ in range(30):
        d = x[:, None, :] - x[None, :, :]
        acc += float(np.sqrt((d * d).sum(-1)).sum())
        x = x * 0.999
    k = 0
    for i in range(3000):
        k += (i * i) % 7
    return acc + k


class HostSpeed:
    """Samples of the reference kernel's time, taken between ops over a run."""

    def __init__(self):
        self.starts: list = []  # perf_counter seconds at which each sample began
        self.ends: list = []
        self.took: list = []  # median kernel time of each sample

    def sample(self) -> None:
        """Time a burst of kernel runs, unless the last is under REF_EVERY_S old."""
        if self.ends and time.perf_counter() - self.ends[-1] < REF_EVERY_S:
            return
        t0 = time.perf_counter()
        runs = []
        for _ in range(REF_BURST):
            t = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - t)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.took.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean kernel time of the last sample before the
        interval and the first one after it: multiply a time taken in the
        interval by this to get the time at the reference speed."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.took[i] for i in (before, after) if 0 <= i < len(self.took)]
        if not near:
            raise ValueError("no reference samples")
        return REF_NOMINAL_S / statistics.fmean(near)


@dataclass
class Round:
    """One timed run over every op, in order, and then the verdicts on it.

    `judge` checks the results, keeps the counts and the digest of the
    emitted JSON, and drops the results, so that a run holds no more memory
    after ten rounds than after one.
    """

    wall_s: float
    starts_s: list
    latencies_s: list
    results: list
    digest: str = ""
    failed: int = 0
    outputs: int = 0
    unresolved: int = 0
    cli_bytes: int = 0
    problems: list = field(default_factory=list)

    def judge(self, ops) -> None:
        """Check every result; run this with tracing off."""
        h = hashlib.sha256()
        for op, res in zip(ops, self.results):
            o = op.judge(res)
            h.update(o.text.encode())
            h.update(b"\n")
            self.failed += o.failed
            self.outputs += o.outputs
            self.unresolved += o.unresolved
            self.cli_bytes += o.cli_bytes
            self.problems += o.problems
        self.digest = h.hexdigest()
        self.results = None


def run_round(ops, pause=None) -> Round:
    """Time every op once; an exception becomes a Raised result, never escapes.

    pause, if given, is called before each op, outside the op's own time.
    """
    results = []
    starts = []
    latencies = []
    start = time.perf_counter()
    for op in ops:
        if pause is not None:
            pause()
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # a failing op is a measurement, not a crash
            res = Raised(exc)
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        results.append(res)
    return Round(time.perf_counter() - start, starts, latencies, results)


def nearest_rank(samples, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule: the ceil(pct/100 * N)-th
    smallest sample. With N samples, N - ceil(pct/100 * N) of them lie above it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def jeffreys(hits: int, total: int) -> float:
    """(hits + 1/2) / (total + 1): the Jeffreys estimate of a rate.

    Unlike hits/total it is never 0, so a workload with no failures still has
    a finite relative bound; it tends to hits/total as total grows.
    """
    return (hits + 0.5) / (total + 1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_info(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "seed": seed,
    }
