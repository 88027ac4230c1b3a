"""The reference loop: a fixed piece of pure-Python work that the
benchmark times next to the simulator, as a measure of how fast the
host runs Python at that moment.

The benchmark runs on shared hosts whose speed drifts by 10-20% over
minutes as other tenants come and go.  Timing this loop just before
every simulation and dividing the simulator's host time by the loop's
median time cancels most of that drift (see README.md, "Host-speed
normalisation").  The loop depends on nothing in ``src/``, so a change
to the simulator cannot move it; only the interpreter and the host
can.  Changing this file changes the unit of every ``*_ref`` metric,
which is why ``compare.py`` refuses results whose reference digests
differ.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from pathlib import Path
from time import perf_counter

import numpy as np


class _Node:
    """A small slotted object, like the simulator's channels and
    messages."""

    __slots__ = ("base", "state", "next")

    def __init__(self, base: int):
        self.base = base
        self.state = 0
        self.next: "_Node" = self

    def step(self, x: int) -> int:
        self.state = (self.state + x + self.base) & 1023
        return self.state


# Fixed inputs, built once per process, outside any timing.
_rng = random.Random(7)
_TABLE = {i: _rng.random() for i in range(50_000)}
_KEYS = [_rng.randrange(50_000) for _ in range(20_000)]
_NODES = [_Node(i) for i in range(512)]
for _i, _node in enumerate(_NODES):
    _node.next = _NODES[(_i * 37 + 1) % 512]
_ROW = np.arange(64, dtype=np.int64)


def _work() -> float:
    """15-30 ms on a 2.1 GHz Xeon, depending on load, of the kinds of
    work the simulator does: lookups in a large dict, a heap, method calls along a ring of
    slotted objects, a sort, bit operations on a small int64 row and
    dict counting."""
    total = 0.0
    for k in _KEYS:
        total += _TABLE[k]
    heap: list = []
    for k in _KEYS[:4000]:
        heapq.heappush(heap, k)
    while heap:
        heapq.heappop(heap)
    x = 0
    for _ in range(12):
        for node in _NODES:
            x = node.next.step(x)
    ordered = sorted(_KEYS[:6000])
    row = _ROW
    for _ in range(300):
        row = (row << 1 | row >> 3) & 0xFFFF
        x += int((row & 7).sum())
    counts: dict = {}
    for k in _KEYS[:8000]:
        counts[k] = counts.get(k, 0) + 1
    return total + x + len(ordered) + len(counts)


#: Seconds per reference unit when a host-time metric must be given in
#: seconds (``setup_s``): about the median pass of the loop on the
#: 2.1 GHz Xeon this was built on (11-14 ms over forty runs).
NOMINAL_S = 0.0125


def sample() -> float:
    """Host seconds one pass of the reference loop takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def digest() -> str:
    """SHA-256 of this file: the identity of the reference unit."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


_work()  # warm the interpreter's caches before the first timed pass
