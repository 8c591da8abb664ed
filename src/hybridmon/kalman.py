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
1 / (P + R) > 0. `synthesize_gains` raises `RiccatiError`, in the words
of `noise_problem`, when the model's noise, one Q and R for every mode,
leaves 1 / (Q + R) not finite on an axis (both zero, say: P + R is then
singular); a solve raises it naming the mode when an increment is not
finite and when any step yields an invalid value.

The update itself, p = A x_est + B u, then p + K (y - p), is one of the
per-sample products of `kernels`, in its explicit order of Python-float
operations; `simulate`'s monitor steps a run's estimate one stretch of
samples at a time, between the samples where its predicting mode or its
input changes. The gains are the part of the estimate that
still depends on the machine: the solve's products and inversion go
through numpy's BLAS and LAPACK, whose rounding can differ between builds
and CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .model import HybridAutomaton, ModeId, noise_problem

RICCATI_TOL = 1e-9
RICCATI_MAX_ITER = 100_000

# the gufunc np.linalg.inv wraps; called directly it gives the same bits
_inv = _umath_linalg.inv


class RiccatiError(RuntimeError):
    """Riccati solve failed: noise it cannot invert, or a mode's non-finite step or no convergence."""


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
    """One synthesized gain per mode, kept as a read-only copy of the mapping passed."""

    gains: Mapping[ModeId, KalmanGain]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", MappingProxyType(dict(self.gains)))


def synthesize_gains(model: HybridAutomaton) -> KalmanBank:
    """Iterate the Riccati recursion per distinct dynamics and check stability.

    With the identity output map the update is K = P (P + R)^-1 on the
    predicted covariance P, followed by P+ = A (P - K P) A' + Q, with the
    model's Q and R. The result is deterministic for a given model. Modes
    whose A is equal bit for bit (so 0.0 and -0.0 differ) share one solve
    and one `KalmanGain`; a solve's errors name the first mode that needs it.
    """
    # P starts at Q, so the first inversion is singular or overflows on an
    # axis where 1 / (Q + R) is not finite
    problem = noise_problem(model)
    if problem is not None:
        raise RiccatiError(problem)
    gains: dict[ModeId, KalmanGain] = {}
    solved: dict[tuple, KalmanGain] = {}
    for mode in model.modes:
        a = mode.a
        key = (a.shape, a.tobytes())
        if key not in solved:
            solved[key] = _solve_riccati(model, mode.mode_id, RICCATI_MAX_ITER)
        gains[mode.mode_id] = solved[key]
    return KalmanBank(gains=gains)


def _solve_riccati(model: HybridAutomaton, mode_id: ModeId, max_iter: int) -> KalmanGain:
    """Riccati fixed point and gain of one mode, with the model's noise; errors name mode_id."""
    a = model.mode(mode_id).a
    a_t = a.T
    q_cov = np.diag((np.array(model.w_bounds) / 3.0) ** 2)
    r_cov = np.diag((np.array(model.v_bounds) / 3.0) ** 2)
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
    radius = float(abs(np.linalg.eigvals(gain.closed_loop(a))).max()) if len(a) else 0.0
    if radius >= 1.0:
        raise GainInstabilityError(
            f"mode {mode_id!r}: closed-loop spectral radius {radius:.6g} >= 1"
        )
    return gain


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
