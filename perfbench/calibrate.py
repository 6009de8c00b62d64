"""Rescale a timed section's wall time to the reference host speed.

The benchmark's host is shared. How fast one of its vCPUs runs changes
by 20-30 % over seconds to minutes, as other tenants load the physical
core under it, and the change is not the same on the two vCPUs (a probe
on the other vCPU did not follow the program's speed at all). Two runs
of the same code therefore read very different wall times.

So the benchmark measures the host's speed on the program's own vCPU
while the program runs: during a timed section, a ``SIGALRM`` every
``INTERVAL`` seconds interrupts the program between two bytecodes and
takes one sample of a fixed kernel. The kernel lives here, not in the
program, so no change to the program makes it faster or slower. It does
what the simulator does most: dictionary lookups and attribute reads
over a working set of tens of MB, a heap, float arithmetic. A sample
walks a stretch of the working set once to bring it into cache, then
times a second walk over the same stretch: a cold walk mostly waits on
memory, and on the reference machine it moved only about 0.7 as far as
the simulator when the host's speed changed, where the warm walk moved
as far (slope 0.9-1.0, correlation 0.98 over 7 s windows of
simulation).

A section's time at reference speed is its wall time, minus the time
spent sampling, times ``REFERENCE_PASS_S`` over the median timed walk in
it. Sampling costs 5-8 % of a section; that cost is the same on every
commit.

A section whose work runs in forked worker processes (``seed_fanout``)
is sampled in the workers instead (``Sampler.in_workers``): a probe in
the waiting parent would compete with the workers for the two vCPUs and
measure the scheduler. An ``os.register_at_fork`` hook starts the timer
in each child forked inside the section; the child appends its samples
to a file of its own, which the parent reads afterwards.

The working set lives in the benchmark's process, so it counts toward
the process's peak RSS, and toward that of every worker forked from it;
``Sampler.footprint_mb`` is what it adds, and the benchmark subtracts
it. ``gc.freeze()`` keeps the collector from walking it.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Iterator

#: Objects in the working set, and lookups per walk.
ITEMS = 200_000
LOOKUPS = 5_000
#: Seconds between samples.
INTERVAL = 0.25
#: Median timed walk on the reference machine (see README.md).
REFERENCE_PASS_S = 0.0075
#: Median whole sample, taken back to back, on the reference machine.
REFERENCE_PROBE_S = 0.017


class Item:
    __slots__ = ("t", "k", "v")

    def __init__(self, t: float, k: int, v: float) -> None:
        self.t = t
        self.k = k
        self.v = v


def resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * 4096 / (1024.0 * 1024.0)


class Kernel:
    """The working set, and one sample of how fast it can be walked."""

    def __init__(self) -> None:
        self.items = {i: Item(i * 0.5, i % 1013, 0.0) for i in range(ITEMS)}
        self.keys = list(self.items)
        random.Random(1).shuffle(self.keys)
        self.offsets = random.Random(2)

    def _walk(self, offset: int) -> None:
        items, keys = self.items, self.keys
        acc = 0.0
        heap: list[tuple[float, int]] = []
        for j in range(LOOKUPS):
            item = items[keys[offset + j]]
            acc += item.t * 0.25 + item.k
            heapq.heappush(heap, (item.t, j))
            if len(heap) > 64:
                heapq.heappop(heap)
            if j % 8 == 0:
                item.v = acc

    def sample(self) -> tuple[float, float]:
        """Seconds the sample took, and seconds of its timed (warm) walk."""
        start = time.perf_counter()
        offset = self.offsets.randrange(ITEMS - LOOKUPS)
        self._walk(offset)
        warm = time.perf_counter()
        self._walk(offset)
        end = time.perf_counter()
        return end - start, end - warm


def probe(seconds: float) -> float:
    """Median seconds per sample over samples taken back to back for
    ``seconds``; compare with ``REFERENCE_PROBE_S``.

    Back to back, the working set stays in cache, so whole walks follow
    the host's speed as the timed walk does inside a section (on the
    reference machine, ten 10,000-object walks back to back: slope 1.03,
    correlation 0.97 against the simulator over 7 s windows). In trial
    runs, timing only the warm walk here scattered set-up times wider.
    """
    kernel = Kernel()
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        samples.append(kernel.sample()[0])
    return statistics.median(samples)


class Window:
    """One timed section: its wall time and the samples taken inside it."""

    def __init__(self, processes: int = 1) -> None:
        self.start = time.perf_counter()
        self.wall = 0.0
        #: Seconds spent sampling, and each sample's timed walk.
        self.busy = 0.0
        self.passes: list[float] = []
        #: Processes the samples were spread over, side by side.
        self.processes = processes

    def add(self, busy: float, walk: float) -> None:
        self.busy += busy
        self.passes.append(walk)

    @property
    def host_seconds(self) -> float:
        """Wall time of the section, without the sampling."""
        return self.wall - self.busy / self.processes

    @property
    def seconds(self) -> float:
        """The section's time at reference speed (host time if no sample)."""
        if not self.passes:
            return self.host_seconds
        return (self.host_seconds * REFERENCE_PASS_S
                / statistics.median(self.passes))


class Sampler:
    """Context manager that times sections, rescaled when ``active``.

    ``with sampler as window: ...`` times the block; afterwards
    ``window.seconds`` is its time at reference speed. An inactive
    sampler (the traced run) takes no samples, so ``window.seconds`` is
    plain wall time.
    """

    def __init__(self, active: bool) -> None:
        self.active = active
        self.footprint_mb = 0.0
        self._window: Window | None = None
        self._previous: Any = None
        self._fork_dir: Path | None = None
        self._sink: int | None = None
        if active:
            before = resident_mb()
            self._kernel = Kernel()
            gc.freeze()
            self.footprint_mb = resident_mb() - before
            os.register_at_fork(after_in_child=self._after_fork)

    def _sample(self, signum: int, frame: Any) -> None:
        busy, walk = self._kernel.sample()
        if self._sink is not None:
            os.write(self._sink, f"{busy!r} {walk!r}\n".encode())
        elif self._window is not None:
            self._window.add(busy, walk)

    def _after_fork(self) -> None:
        """In a child forked inside ``in_workers``: sample into a file."""
        if self._fork_dir is None:
            return
        self._window = None
        self._sink = os.open(self._fork_dir / str(os.getpid()),
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def __enter__(self) -> Window:
        self._window = Window()
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._window.start = time.perf_counter()
        return self._window

    def __exit__(self, *exc: Any) -> None:
        window = self._window
        assert window is not None
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        window.wall = time.perf_counter() - window.start
        self._window = None

    @contextlib.contextmanager
    def in_workers(self, directory: Path,
                   processes: int) -> Iterator[Window]:
        """Time a section whose work runs in up to ``processes`` forked
        workers at once, sampling the speed in the workers."""
        window = Window(processes)
        if self.active:
            directory.mkdir(parents=True)
            self._fork_dir = directory
        window.start = time.perf_counter()
        try:
            yield window
        finally:
            window.wall = time.perf_counter() - window.start
            self._fork_dir = None
            if self.active:
                for path in sorted(directory.iterdir()):
                    for line in path.read_text(encoding="ascii").splitlines():
                        busy, walk = line.split()
                        window.add(float(busy), float(walk))
