"""Host-speed probe for normalizing wall times.

The small shared hosts this benchmark runs on change speed by a third
or more for minutes at a time, as neighbours come and go, and even the
fastest of many repetitions of a fixed piece of work moves with them.
This probe uses nothing of the program, so a change to the program
does not move it.  It does the interpreter work on small objects that
dominates the simulator: attribute access, dicts, bytes slicing,
struct, SHA-1.  It leaves out scattered reads over a table larger than
the CPU caches: under the same neighbours those slowed 2.2x where the
crash checker and this probe slowed 1.8x.

:func:`host_factor` turns the fastest of a run's probes into a factor:
a time multiplied by it reads as seconds on a host where that fastest
probe takes ``PROBE_FLOOR_S``.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import time
from typing import Iterable

#: The fastest probe of a run on the 2-CPU host the benchmark was
#: defined on, while that host ran at its usual speed.
PROBE_FLOOR_S = 0.004
PROBE_ROUNDS = 3500


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: bytes):
        self.key = key
        self.value = value
        self.children = []

    def add(self, node: "_Node") -> "_Node":
        self.children.append(node)
        return node


def _objects(rounds: int) -> int:
    table = {}
    root = _Node(0, b"")
    block = bytes(range(256)) * 4
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 0x3FF
        node = table.get(key)
        if node is None:
            node = table[key] = root.add(
                _Node(key, block[key & 0xFF:(key & 0xFF) + 64]))
        node.value = node.value[1:] + node.value[:1]
        acc ^= struct.unpack_from("<I", node.value, 0)[0]
        if i % 16 == 0:
            acc ^= hashlib.sha1(block).digest()[0]
        acc += len(node.children) + sum(1 for c in root.children[-4:] if c.key & 1)
    return acc


def probe() -> float:
    """Wall seconds of one fixed probe, with the collector paused so the
    program's heap size does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _objects(PROBE_ROUNDS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def host_factor(probes: Iterable[float]) -> float:
    """``PROBE_FLOOR_S`` over the fastest of *probes*: below 1 while the
    host runs slow."""
    return PROBE_FLOOR_S / min(probes)
