"""Host speed probe: a small reference loop timed all through the work.

On a shared host the same repetition can take twice as long in one
minute as in the next, because other tenants load the cores for seconds
at a time; CPU time stretches with wall time, so neither is steady.  A
repetition therefore runs a probe process beside its work, one per CPU
it may use, pinned to that CPU.  Every ``PERIOD_S`` the probe runs a
fixed pure-Python shortest-path loop (dicts, lists and a heap, the
same kind of work as the program's inner loops) and records its CPU
time.  A timed stretch of the work is then reported at reference
speed::

    normalized_s = measured_s * mean(REFERENCE_S / loop CPU time)

over the loops run during the stretch (widened by ``WINDOW_S`` on each
side): the seconds it would take on a host where the loop takes
``REFERENCE_S``.  The loop is the benchmark's own code, so no change to
``src/`` makes it faster or slower.  The probes take a few percent of
each CPU, the same on every commit.

The CPUs of the host change speed each on its own, often one slow while
the other is fast.  Work that runs in one process is therefore
*followed*: it is kept on the CPU whose recent loops are fastest, moved
when another CPU's are faster by ``MOVE_RATIO``, and each stretch is
scaled by the loops of the CPU it was on.  Work spread over every CPU
(a process pool) is scaled by the mean over the CPUs.

Usage as a probe process (``SpeedProbe`` starts these)::

    python3 perfbench/speed.py CPU
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import subprocess
import sys
import threading
import time

#: CPU seconds of one reference loop, sampled beside the work on an
#: unloaded 2-CPU x86-64 host at 2.0 GHz (CPython 3.11): the speed every
#: normalized time is reported at.
REFERENCE_S = 0.0015

#: Seconds a probe sleeps between two loops: it takes about 2% of a CPU.
PERIOD_S = 0.05

#: Followed work moves to a CPU whose recent loops take at most this
#: share of the time they take on the CPU it is on.
MOVE_RATIO = 0.85

#: Loops per CPU that count as recent.
RECENT = 3

#: Loops this far outside a timed stretch still count for it, so that
#: a stretch of a few milliseconds has samples too.
WINDOW_S = 0.1


def _reference_graph():
    rng = random.Random(20111)
    n = 400
    adjacency = {v: [] for v in range(n)}
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, 2)):
            w = rng.randint(1, 16)
            adjacency[v].append((u, w))
            adjacency[u].append((v, w))
    return adjacency


_GRAPH = _reference_graph()


def reference_loop():
    """Dijkstra from two fixed sources of a fixed 400-node graph."""
    total = 0
    for source in (0, 200):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, w in _GRAPH[v]:
                nd = d + w
                if nd < dist.get(u, nd + 1):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        total += sum(dist.values())
    return total


def probe(cpu):
    """Sample the loop's CPU time on *cpu* until killed or orphaned."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    reference_loop()  # warm: the first call pays for cold caches
    while os.getppid() == parent:
        t0 = time.process_time()
        reference_loop()
        elapsed = time.process_time() - t0
        sys.stdout.write(f"{time.monotonic()!r} {elapsed!r}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


class SpeedProbe:
    """Probe processes on this process's CPUs, for the ``with`` block.

    Time the work with ``time.monotonic()``; after the block,
    ``seconds(t0, t1)`` gives a stretch at reference speed.  With
    *follow*, the calling thread and the processes passed to ``follow``
    are kept on the fastest CPU.
    """

    def __init__(self, follow=False):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = {cpu: [] for cpu in self.cpus}
        self.following = follow and len(self.cpus) > 1
        self.moves = []  # (monotonic time, CPU the followed work went to)
        self._tasks = [threading.get_native_id()] if self.following else []
        self._lock = threading.Lock()
        self._probes = []
        self._readers = []

    def __enter__(self):
        try:
            for cpu in self.cpus:
                self._probes.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdout=subprocess.PIPE, text=True))
            for cpu, process in zip(self.cpus, self._probes):
                # The first sample: the probe is warm and running.
                line = process.stdout.readline()
                if not line:
                    raise RuntimeError("speed probe exited")
                self._record(cpu, line)
            if self.following:
                self._move(min(self.cpus,
                               key=lambda c: self.samples[c][-1][1]))
                for cpu, process in zip(self.cpus, self._probes):
                    reader = threading.Thread(
                        target=self._read, args=(cpu, process.stdout),
                        daemon=True)
                    reader.start()
                    self._readers.append(reader)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc_info):
        self._stop()

    def follow(self, pid):
        """Keep process *pid* (single-threaded) with the followed work."""
        with self._lock:
            self._tasks.append(pid)
            self._move(self.moves[-1][1])

    def _record(self, cpu, line):
        stamp, elapsed = line.split()
        self.samples[cpu].append((float(stamp), float(elapsed)))

    def _read(self, cpu, stream):
        # Not pinned with the work it moves.
        os.sched_setaffinity(0, self.cpus)
        for line in stream:
            with self._lock:
                self._record(cpu, line)
                recent = {c: statistics.fmean(x for _, x in s[-RECENT:])
                          for c, s in self.samples.items()}
                here = self.moves[-1][1]
                best = min(recent, key=recent.get)
                if recent[best] < MOVE_RATIO * recent[here]:
                    self._move(best)

    def _move(self, cpu):
        for task in self._tasks:
            try:
                os.sched_setaffinity(task, {cpu})
            except ProcessLookupError:
                pass
        self.moves.append((time.monotonic(), cpu))

    def _stop(self):
        for process in self._probes:
            process.kill()
        for cpu, process in zip(self.cpus, self._probes):
            if self._readers:
                process.wait()
            else:
                out, _ = process.communicate()
                for line in out.splitlines():
                    self._record(cpu, line)
        for reader in self._readers:
            reader.join()
        if self.following:
            os.sched_setaffinity(0, self.cpus)
        for process in self._probes:
            process.stdout.close()
        self._probes, self._readers = [], []

    def _where(self, stamp):
        """The CPU the followed work was on at *stamp*."""
        cpu = self.moves[0][1]
        for moved, to in self.moves:
            if moved > stamp:
                break
            cpu = to
        return cpu

    def seconds(self, t0, t1):
        """The monotonic stretch *t0*..*t1*, in seconds at reference speed.

        The scale is the mean speed, in reference loops per loop, of the
        loops run during the stretch: those of the CPU the followed work
        was on at each instant, or else the mean over every CPU.
        """
        if self.following:
            series = [[(stamp, elapsed)
                       for cpu, samples in self.samples.items()
                       for stamp, elapsed in samples
                       if self._where(stamp) == cpu]]
        else:
            series = self.samples.values()
        lo, hi = t0 - WINDOW_S, t1 + WINDOW_S
        speeds = []
        for samples in series:
            inside = [e for stamp, e in samples if lo <= stamp <= hi]
            if not inside:
                mid = (t0 + t1) / 2.0
                inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
            speeds.append(statistics.fmean(REFERENCE_S / e for e in inside))
        return (t1 - t0) * statistics.fmean(speeds)

    def loop_ms(self):
        """Median loop CPU time over the block, in milliseconds."""
        return 1e3 * statistics.median(
            elapsed for samples in self.samples.values()
            for _, elapsed in samples)


if __name__ == "__main__":
    try:
        probe(int(sys.argv[1]))
    except (BrokenPipeError, KeyboardInterrupt):
        pass
