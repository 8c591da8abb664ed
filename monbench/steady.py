"""Times at a steady machine speed: wall times rescaled by a reference computation.

The benchmark runs on a few cores of a shared host. Other tenants slow every
core down by up to 1.7x for stretches of seconds to a minute; the process's
CPU time grows with its wall time, and the host reports no steal, so the
slowdown cannot be subtracted. It can be cancelled: a fixed reference
computation, which never touches the program, runs at least every
`EVERY_S` seconds, and each wall time measured between two reference runs
is multiplied by `REF_S / (mean of the two)`. A time then reads as it would
at the speed the reference had when `REF_S` was recorded, and a change to the
program still moves it in full. The reference is made of what the program's
loops are made of: small numpy matrix products, interval tests and dict
building, in the interpreter.
"""

from __future__ import annotations

import time

import numpy as np

# About the wall time of `reference()` on the 2-core machine the README's
# figures were recorded on, at moments when no other tenant slowed it; it
# fixes the scale of the rescaled times only.
REF_S = 0.021
# Steps of one reference computation, and the longest stretch of wall time
# between two of them.
STEPS = 2000
EVERY_S = 0.5

_A = np.array([[1.0, 0.1, 0.0], [0.0, 0.95, 0.05], [0.0, 0.0, 0.8]])
_LO = np.full(3, -1e9)
_HI = np.full(3, 1e9)


def reference(steps: int = STEPS) -> int:
    """A fixed stretch of numpy and interpreter work; returns a checksum."""
    x = np.zeros(3)
    p = np.eye(3)
    q = 0.001 * np.eye(3)
    inside = 0
    for k in range(steps):
        x = _A @ x + 0.01
        p = _A @ p @ _A.T + q
        if np.all(x >= _LO) and np.all(x <= _HI):
            inside += 1
        row = {"k": k, "x": float(x[0])}
        inside += len(row)
    return inside


def reference_s() -> float:
    """Wall time of `reference()`, taken as twice the faster of its two halves,
    so that a pause of the process inside one half does not count."""
    halves = []
    for _ in range(2):
        start = time.perf_counter()
        reference(STEPS // 2)
        halves.append(time.perf_counter() - start)
    return 2 * min(halves)


class SteadyClock:
    """Rescales the wall times given to `add` once the next reference has run.

    `add(seconds, key)` holds a wall time; `tick()` runs the reference when
    `EVERY_S` has passed since the last one, and `settle()` runs it in any
    case. Either then moves the held times, rescaled, into `done` under their
    keys. `factors` keeps every rescaling factor, for the run's log.
    """

    def __init__(self) -> None:
        self.done: dict[object, list[float]] = {}
        self.factors: list[float] = []
        self._held: list[tuple[float, object]] = []
        self._last = reference_s()
        self._at = time.perf_counter()

    def add(self, seconds: float, key: object) -> None:
        self._held.append((seconds, key))

    def tick(self) -> None:
        if time.perf_counter() - self._at >= EVERY_S:
            self.settle()

    def settle(self) -> None:
        now = reference_s()
        factor = REF_S / ((self._last + now) / 2)
        self._last, self._at = now, time.perf_counter()
        if not self._held:
            return
        self.factors.append(factor)
        for seconds, key in self._held:
            self.done.setdefault(key, []).append(seconds * factor)
        self._held.clear()
