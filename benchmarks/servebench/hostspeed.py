"""Host-speed reference: a low-priority loop on the benchmark's own CPU.

On a shared host, other tenants' work on the same physical core slows the
CPU this benchmark runs on, by up to about 2.5x and for seconds at a time.
A loop of fixed work that runs on the same CPU is slowed alike; one on
the host's other CPU is not (their speeds per second correlated at
r=0.2-0.3), so the benchmark and the loop share one CPU.  The loop runs
at low priority, so it takes about a tenth of the CPU, and it measures
each of its loops in its own CPU time, which time-slicing leaves out.
Its loops that ran while a request ran tell how fast the host was then.
The loop fills a dict with fresh tuples and strings, because allocation-
heavy work is slowed by contention as much as the serve path is: the
request latencies of all three workloads, on a log scale, moved 1.0-1.2
times as much as this loop's cost, and 1.4-1.6 times as much as a loop
of integer arithmetic.

:meth:`HostSpeed.seconds` turns a wall-clock span into seconds at the
loop's uncontended speed, :data:`REF_LOOP_S`.  On a 2-core x86 host that
cut the spread (IQR/median) of repeats of one request from 0.36-0.53 to
0.09-0.11 while the host was busy.

Run as a script, this file is the loop itself: it prints ``ready``, then
samples until SIGTERM, or until its parent is gone, and prints its
samples as one JSON list.  Its timestamps are ``time.perf_counter()``,
which on Linux is the system-wide monotonic clock, so they compare with
the benchmark's own.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time

#: Iterations of one reference loop: about 0.5 ms of CPU, so a 30 ms
#: request overlaps several loops.
REF_ITERS = 3000
#: CPU time of one loop when nothing contends for the core (first
#: percentile on a 2-core x86 host, py3.11).  Scaled timings are in
#: seconds at this speed.
REF_LOOP_S = 0.44e-3
#: The loop's niceness: weight 110 against the benchmark's 1024.
NICE = 10


class HostSpeed:
    """The reference loop, run beside the benchmark for the life of the block.

    Entering pins this process to one CPU, so that the loop and the
    benchmark, and the set-up processes it starts, share one core.
    """

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._mids: list[float] = []
        self._costs: list[float] = []

    def __enter__(self) -> HostSpeed:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("host-speed reference loop did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if out.strip():
            samples = json.loads(out)
            self._mids = [mid for mid, _ in samples]
            self._costs = [cost for _, cost in samples]

    def seconds(self, t0: float, t1: float) -> float:
        """The wall span ``[t0, t1]`` in seconds at :data:`REF_LOOP_S` speed.

        The span is scaled by the mean cost of the loops centred in it, or
        of the nearest loop when it is shorter than one loop.
        """
        if not self._costs:
            raise RuntimeError("no host-speed samples; seconds() needs a finished block")
        lo = bisect.bisect_left(self._mids, t0)
        hi = bisect.bisect_right(self._mids, t1)
        if hi > lo:
            cost = sum(self._costs[lo:hi]) / (hi - lo)
        else:
            mid = (t0 + t1) / 2
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(self._mids)),
                       key=lambda i: abs(self._mids[i] - mid))
            cost = self._costs[near]
        return (t1 - t0) * REF_LOOP_S / cost


def _sample() -> None:
    os.nice(NICE)
    parent = os.getppid()
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    print("ready", flush=True)
    samples = []
    while not stopped and os.getppid() == parent:
        t0, c0 = time.perf_counter(), time.process_time()
        table = {}
        for i in range(REF_ITERS):
            table[i & 1023] = (i, str(i))
        c1, t1 = time.process_time(), time.perf_counter()
        samples.append(((t0 + t1) / 2, c1 - c0))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _sample()
