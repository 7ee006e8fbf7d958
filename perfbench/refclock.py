"""A clock that runs at the speed of a fixed reference loop.

The benchmark's host is a share of a machine whose speed, as one process sees
it, swings by 15-25% over seconds to minutes; the same
pass of ramsum work took anywhere from 0.33 to 0.58 s of CPU time within 90
seconds, so plain wall or CPU time cannot resolve a 25% bound between runs.
On a loaded host the process also loses time to steal (the hypervisor running
another guest on its vCPU) and to other processes, which wall time counts.

``RefClock`` cancels both.  It reads the thread's CPU time, which the kernel
keeps free of steal and of time spent off the CPU.  While it is running, a
SIGPROF every ``TICK_S`` seconds of CPU time runs ``reference_chunk`` (a fixed
pure-Python loop of integer, dict, gcd and Fraction work that shares no code
with ramsum) in the same thread, and times it.  ``now()`` advances by CPU
time multiplied by ``REF_S / r``, where ``r`` is the median of the last few
chunk times, and does not advance while a chunk runs.  A reading is thus in
*reference seconds*: the seconds the work would take on a host on which one
chunk takes exactly ``REF_S``.  A change that makes ramsum itself do more
work still moves it in full; only the host's speed is divided out.  The
chunks cost about 2% of the run.

Only the main thread's Python code is interleaved with chunks, and only its
CPU time is read, so it is meant for one caller in one process.  A caller
that waits on other processes passes ``wall=True``: real time and SIGALRM
then take the place of CPU time and SIGPROF, and steal is not cancelled.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

TICK_S = 0.05
# nominal duration of one reference chunk: one reference second is the time
# in which a host runs 1000 chunks
REF_S = 1e-3
# chunk times the speed is taken from (their median); odd
WINDOW = 3
CHUNK_ITERS = 700

_TABLE = [(i * 2654435761) % 1000003 for i in range(1 << 16)]


def reference_chunk(n: int = CHUNK_ITERS) -> int:
    """Fixed work of about a millisecond; its result is only returned so
    that no step can be skipped."""
    acc = 0
    seen = {}
    table = _TABLE
    q = Fraction(0)
    for i in range(1, n):
        x = table[(i * 40503) & 0xFFFF]
        g = math.gcd(x, 30030)
        seen[x % 251] = seen.get(x % 251, 0) + g
        acc += pow(x, 5, 1000003) // (g + 1)
        y = x
        while not y & 1:
            y >>= 1
        acc ^= y
        if i % 40 == 0:
            q += Fraction(x, g + i)
    return acc + q.numerator % 7 + len(seen)


class RefClock:
    """Context manager; ``now()`` is valid inside it."""

    def __init__(self, wall: bool = False):
        self._read = time.perf_counter if wall else time.thread_time
        self._signal, self._timer = (signal.SIGALRM, signal.ITIMER_REAL) if wall else (signal.SIGPROF, signal.ITIMER_PROF)
        self.chunks: list = []  # seconds each reference chunk took
        self._state = (0.0, self._read(), 1.0)
        self._previous = None

    def _measure(self) -> float:
        r0 = self._read()
        reference_chunk()
        self.chunks.append(self._read() - r0)
        return REF_S / _median(self.chunks[-WINDOW:])

    def _tick(self, signum, frame) -> None:
        t = self._read()
        acc, last, factor = self._state
        acc += (t - last) * factor
        factor = self._measure()
        self._state = (acc, self._read(), factor)

    def now(self) -> float:
        """Reference seconds since the clock started."""
        while True:
            state = self._state
            t = self._read()
            # a tick between the two reads would mix old state with a time
            # taken after its chunk; read again
            if state is self._state:
                return state[0] + (t - state[1]) * state[2]

    def __enter__(self) -> "RefClock":
        for _ in range(WINDOW):
            factor = self._measure()
        self._state = (0.0, self._read(), factor)
        self._previous = signal.signal(self._signal, self._tick)
        signal.setitimer(self._timer, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(self._timer, 0, 0)
        signal.signal(self._signal, self._previous)

    def chunk_ms(self) -> float:
        """Median duration of a reference chunk, in ms of the clock read."""
        return _median(self.chunks) * 1e3


def _median(values: list) -> float:
    # statistics is not imported, so that set-up timing loads no more of
    # the standard library than ramsum does
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class PlainClock:
    """The same interface on real time, for traced runs: a tracer's spans
    must not contain reference chunks."""

    def now(self) -> float:
        return time.perf_counter()

    def __enter__(self) -> "PlainClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def chunk_ms(self) -> None:
        return None
