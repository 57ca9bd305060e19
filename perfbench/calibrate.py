"""The host's current speed, from a fixed pure-Python kernel.

On a shared host the machine's speed drifts: for tens of seconds at a time
every Python program runs 30-50% slower.  The benchmark times this kernel
next to every request and scales the request's wall time by
``REFERENCE_S / <kernel time>``, so a timing reads as seconds at the speed of
a host on which the kernel takes ``REFERENCE_S``.  The kernel is frozen and
lives in the benchmark, so a change to the program moves the scaled times
exactly as it moves the raw ones.

The kernel multiplies sparse polynomials stored as dicts from exponent tuples
to coefficients modulo a prime, the same kind of work the program's pure
Python term kernel does.  The cyclic garbage collector is off while it runs,
so its time does not depend on how much the program keeps alive.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.0105  # seconds the kernel takes on a quiet 2-vCPU host
_PRIME = 32003
_TERMS = 24
_ROUNDS = 64


def _operands():
    """Two fixed polynomials in three variables (a small LCG, no seed)."""
    state = 12345

    def draw(n):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return state % n

    def poly():
        return {(draw(6), draw(6), draw(6)): 1 + draw(_PRIME - 1) for _ in range(_TERMS)}

    return poly(), poly()


_A, _B = _operands()


def _kernel():
    a = _A
    for _ in range(_ROUNDS):
        out = {}
        for ea, ca in a.items():
            for eb, cb in _B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = (out.get(e, 0) + ca * cb) % _PRIME
        # Keep the operand small: the lowest terms in a fixed order.
        a = dict(sorted(out.items())[:_TERMS])
    return a


def kernel_seconds():
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    times = sorted(kernel_seconds() for _ in range(200))
    print(f"min {times[0]:.5f} s, median {times[100]:.5f} s, reference {REFERENCE_S} s")
