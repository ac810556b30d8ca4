"""The machine's current speed, from two fixed pure-Python calibration loops.

A shared virtual machine changes speed by up to half for tens of
seconds at a time, and both wall and CPU time move with it.  The
benchmark therefore runs `calibrate()` next to the work it times and
reports a time scaled to a reference speed:

    scaled = raw * REF_MS / (calibration reading next to the work)

which is the raw time on a machine where the reading is `REF_MS`.  The
loops are the benchmark's own code, so a change to jsonsub cannot move
them.  One is compute-bound (small tuples as dictionary keys, short
lists, function calls); the other allocates and probes a table of about
a megabyte.  On a 2-vCPU VM the two drift in opposite directions as
often as not; with the geometric mean of the two (see `reading`) the
quartile spread of `rec-chain` throughput over seeds fell from 0.11
(compute loop alone) to 0.03.
"""

from __future__ import annotations

import functools
import gc
import math
import time

REF_MS = 2.5  # about the reading on a 2-vCPU cloud VM at full speed
COMPUTE_NEAR = 2  # calibrations on each side whose compute times are averaged
MEMORY_NEAR = 16  # and whose memory times give the median


def _step(i: int) -> int:
    return len([x for x in (i, i + 1, i + 2) if x % 3])


def _compute_loop() -> int:
    seen: dict[tuple, int] = {}
    total = 0
    for i in range(3000):
        key = (i % 97, "k")
        seen[key] = seen.get(key, 0) + 1
        total += _step(i)
    return total + len(seen)


@functools.cache
def _keys() -> tuple:
    names = [f"k{i}" for i in range(100)]
    return tuple(((i * 7919) % 1_000_003, names[i % 100]) for i in range(10000))


def _memory_loop() -> int:
    keys = _keys()
    table: dict[tuple, tuple] = {}
    for key in keys:
        table[key] = (key, table.get(key))
    total = sum(len(table[key]) for key in keys[::3])
    return total + len([[i, (i, i)] for i in range(4000)])


def calibrate() -> tuple[float, float]:
    """Milliseconds that the compute loop and the memory loop take now.

    The garbage collector is off meanwhile: a collection walks the whole
    heap, so its cost would make the reading depend on how much memory
    the library holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _compute_loop()
        t1 = time.perf_counter()
        _memory_loop()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) * 1000, (t2 - t1) * 1000


def reading(cals: list[tuple[float, float]], i: int) -> float:
    """The calibration reading for work done between calibrations i and i + 1.

    The compute loop is steady from one pass to the next and follows quick
    changes, so its times are averaged over the few nearest calibrations;
    the memory loop is noisier and follows slower changes, so its times
    give a median over many.
    """
    compute = cals[max(0, i + 1 - COMPUTE_NEAR):i + 1 + COMPUTE_NEAR]
    memory = sorted(m for _, m in cals[max(0, i + 1 - MEMORY_NEAR):i + 1 + MEMORY_NEAR])
    mid = len(memory) // 2
    memory_ms = memory[mid] if len(memory) % 2 else (memory[mid - 1] + memory[mid]) / 2
    return math.sqrt(sum(c for c, _ in compute) / len(compute) * memory_ms)


def scale(raw: float, cal_ms: float) -> float:
    """A raw time expressed at the reference speed."""
    return raw * REF_MS / cal_ms
