"""Per-mode steady-state Kalman filters for the continuous state estimate.

Gains come from iterating the discrete Riccati recursion on the predicted
error covariance to a fixed point. Noise covariances are diagonal with
standard deviation bound/3, matching the truncated-Gaussian noise model
(the bound is a three-sigma clip). A solve takes A' once and keeps the
order of the products in K = P (P + R)^-1 and P+ = (A (P - K P)) A' + Q.

A solve gives the bits of `np.linalg.inv` and `@` without their per-call
cost. It calls `numpy.linalg._umath_linalg.inv` with signature "d->d", the
gufunc that `np.linalg.inv` wraps, inside one `np.errstate` per solve
instead of one per inversion. It takes the products with `ndarray.dot`,
which gives the bits of `@` except for the sign of a zero from a 1 x 1
product: there `dot` can keep a -0.0 that `@` turns into +0.0. That case
cannot reach a result. Every P is a sum with Q, whose entries are +0.0 or
positive, and in one dimension K is the product of P >= 0 and
1 / (P + R) > 0. A solve raises `RiccatiError` naming the mode when an axis
has process and measurement noise too small for 1 / (Q + R) to be finite
(both zero, say: P + R is then singular), when an increment is not finite,
and when any step yields an invalid value.

`step_rows` is the update, for S seeds at once: it takes each seed's A and
gain as arrays and its B u as a row, and steps a range of rows of an
estimate buffer, each from the row before and its measurement, with no
model lookup, copy or validation. `simulate`'s monitor pass calls it once
per stretch of samples in which no seed changes its predicting mode or its
input, after the plant loop has filled the measurements; one step of one
seed is a range of one row with S = 1. The caller keeps the residual and
the settling count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .model import HybridAutomaton, LtiDynamics, ModeId, noise_problem

RICCATI_TOL = 1e-9
RICCATI_MAX_ITER = 100_000

# the gufunc np.linalg.inv wraps; called directly it gives the same bits
_inv = _umath_linalg.inv


class RiccatiError(RuntimeError):
    """Riccati iteration failed for a mode: a noiseless axis, a non-finite step or no convergence."""


class GainInstabilityError(RuntimeError):
    """Synthesized gain leaves the closed-loop error dynamics unstable."""


@dataclass(frozen=True)
class KalmanGain:
    """Steady-state gain and covariance for one mode."""

    gain: np.ndarray
    predicted_covariance: np.ndarray
    iterations: int
    final_increment: float

    def __post_init__(self) -> None:
        for name in ("gain", "predicted_covariance"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def closed_loop(self, a: np.ndarray) -> np.ndarray:
        """Error propagation matrix (I - K) A of the predict/update loop."""
        n = self.gain.shape[0]
        return (np.eye(n) - self.gain) @ a


@dataclass(frozen=True)
class KalmanBank:
    """One synthesized gain per mode, immutable after synthesis."""

    gains: Mapping[ModeId, KalmanGain]


def synthesize_gains(model: HybridAutomaton, max_iter: int = RICCATI_MAX_ITER) -> KalmanBank:
    """Iterate the Riccati recursion per distinct dynamics and check stability.

    With the identity output map the update is K = P (P + R)^-1 on the
    predicted covariance P, followed by P+ = A (P - K P) A' + Q. The result
    is deterministic for a given model. Modes whose A, w and v bounds are
    equal bit for bit (so 0.0 and -0.0 differ) share one solve and one
    `KalmanGain`; a solve's errors name the first mode that needs it.
    """
    gains: dict[ModeId, KalmanGain] = {}
    solved: dict[tuple, KalmanGain] = {}
    for mode in model.modes:
        dyn = mode.dynamics
        key = (dyn.a.shape, dyn.a.tobytes(), dyn.w_bounds.tobytes(), dyn.v_bounds.tobytes())
        if key not in solved:
            solved[key] = _solve_riccati(mode.mode_id, dyn, max_iter)
        gains[mode.mode_id] = solved[key]
    return KalmanBank(gains=gains)


def _solve_riccati(mode_id: ModeId, dyn: LtiDynamics, max_iter: int) -> KalmanGain:
    """Riccati fixed point and gain of one dynamics; errors name mode_id."""
    # P starts at Q, so the first inversion is singular or overflows on an
    # axis where 1 / (Q + R) is not finite
    problem = noise_problem(mode_id, dyn)
    if problem is not None:
        raise RiccatiError(problem)
    a, a_t = dyn.a, dyn.a.T
    q_cov = np.diag((dyn.w_bounds / 3.0) ** 2)
    r_cov = np.diag((dyn.v_bounds / 3.0) ** 2)
    p = q_cov.copy()
    increment = np.inf
    iterations = 0
    # over, divide and under as np.linalg.inv sets them around its gufunc.
    # A singular P + R makes the gufunc flag an invalid value, but so can
    # any other ufunc of a step, so the error names the ufunc that raised.
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            for iterations in range(1, max_iter + 1):
                k = p.dot(_inv(p + r_cov, signature="d->d"))
                p_next = a.dot(p - k.dot(p)).dot(a_t) + q_cov
                increment = float(abs(p_next - p).max())
                p = p_next
                if increment < RICCATI_TOL:
                    break
                if not math.isfinite(increment):
                    raise RiccatiError(
                        f"mode {mode_id!r}: Riccati increment {increment} "
                        f"is not finite at step {iterations}"
                    )
            else:
                raise RiccatiError(
                    f"mode {mode_id!r}: Riccati iteration did not converge "
                    f"within {max_iter} steps (last increment {increment:.3e})"
                )
            k = p.dot(_inv(p + r_cov, signature="d->d"))
        except FloatingPointError as error:
            raise RiccatiError(
                f"mode {mode_id!r}: {error} at Riccati step {iterations}"
            ) from error
    gain = KalmanGain(
        gain=k,
        predicted_covariance=p,
        iterations=iterations,
        final_increment=increment,
    )
    radius = float(abs(np.linalg.eigvals(gain.closed_loop(a))).max()) if dyn.dim else 0.0
    if radius >= 1.0:
        raise GainInstabilityError(
            f"mode {mode_id!r}: closed-loop spectral radius {radius:.6g} >= 1"
        )
    return gain


def step_rows(
    a: Sequence[np.ndarray],
    gain: Sequence[np.ndarray],
    bu: np.ndarray,
    x_est: np.ndarray,
    y: np.ndarray,
    lo: int,
    hi: int,
    scratch: np.ndarray,
) -> None:
    """Predict/update steps of S seeds together, rows lo + 1 .. hi in place.

    x_est and y hold row r of seed s at [r, s], each row one C-contiguous
    (S, n) array; a and gain hold each seed's A and gain, and bu, (S, n),
    each seed's B times its input. Row r of seed s becomes
    A_s x_est[r - 1, s] + bu[s], then that plus K_s (y[r, s] - it). Each
    product is one `ndarray.dot` per seed, into that seed's row of scratch;
    the sum with B u, the innovation and the correction sum are one
    elementwise call for all seeds, so each seed gets the bits of stepping
    it alone. scratch holds three (S, n) arrays, which must not overlap
    x_est, y or bu: A x_est, the innovation and the correction. The
    operation order is part of the result: reassociating it, to (I - K) A
    say, changes the float bits of every trace. `ndarray.dot` gives the bits
    of `@` up to the sign of a zero (see `simulate`), so when bu is not
    -0.0, as `B @ u` never is, neither is A x_est + B u, and each row has
    the bits of the same formula written with `@`.
    """
    # `out` is passed by position, which numpy parses faster than a keyword
    predicted, innovation, correction = scratch
    predictions = list(enumerate(zip([matrix.dot for matrix in a], predicted)))
    corrections = list(zip([matrix.dot for matrix in gain], innovation, correction))
    add, subtract = np.add, np.subtract
    prev = x_est[lo]
    for out, meas in zip(x_est[lo + 1 : hi + 1], y[lo + 1 : hi + 1]):
        for s, (dot, into) in predictions:
            dot(prev[s], into)
        add(predicted, bu, out)
        subtract(meas, out, innovation)
        for dot, row, into in corrections:
            dot(row, into)
        out += correction
        prev = out


def check_dwell(model: HybridAutomaton, event_samples: Sequence[int]) -> bool:
    """True iff consecutive events leave more than dwell_time settled samples.

    An event at sample t takes effect at t + 1, so the settled gap before the
    next event at sample t' is t' - (t + 1).
    """
    samples = list(event_samples)
    return all(
        later - (earlier + 1) > model.dwell_time
        for earlier, later in zip(samples, samples[1:])
    )
