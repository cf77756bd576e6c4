"""Host-speed calibration for the benchmark's timings.

The benchmark shares its machine: measured here, a fixed pure-Python loop
ran up to 1.7x slower for minutes at a time while neighbours were busy, and
wall-time medians of whole runs moved with it. So every timed call is
bracketed by ``kernel()``, a fixed stand-in for selenc's hot loops (a
byte-wise escape scan and AES-like table rounds), and its wall time is
scaled to the speed at which the kernel takes ``NOMINAL_S``:

    calibrated seconds = wall seconds * NOMINAL_S / kernel seconds

The kernel is the benchmark's own code, so a change to selenc never moves
it.
"""

from __future__ import annotations

import random
import time

# The kernel's typical time on the 2-core Xeon (2.1 GHz) host the benchmark
# was defined on; it fixes the scale of calibrated seconds, nothing else.
NOMINAL_S = 0.015

_rng = random.Random(0)
_DATA = _rng.randbytes(32768).translate(bytes((0, 0, 1, 3, 7, 200, 9, 0) * 32))
_TABLE = _rng.randbytes(256)
_PERM = tuple(_rng.sample(range(16), 16))


def kernel() -> float:
    """Run the fixed kernel once; return its wall seconds."""
    start = time.perf_counter()
    out = bytearray()
    zeros = 0
    for b in _DATA:
        if zeros >= 2 and b <= 3:
            out.append(3)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    s = bytes(16)
    for _ in range(2400):
        t = bytes(map(s.translate(_TABLE).__getitem__, _PERM))
        o = bytearray(16)
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
            x = a0 ^ a1 ^ a2 ^ a3
            o[c] = a0 ^ x ^ _TABLE[a0 ^ a1]
            o[c + 1] = a1 ^ x ^ _TABLE[a1 ^ a2]
            o[c + 2] = a2 ^ x ^ _TABLE[a2 ^ a3]
            o[c + 3] = a3 ^ x ^ _TABLE[a3 ^ a0]
        s = (int.from_bytes(o, "big") ^ len(out)).to_bytes(16, "big")
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Calibrated seconds per wall second, from kernel runs bracketing a call."""
    return NOMINAL_S * 2 / (before + after)
