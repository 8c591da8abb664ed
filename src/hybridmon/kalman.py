"""Per-mode steady-state Kalman filters for the continuous state estimate.

Gains come from iterating the discrete Riccati recursion on the predicted
error covariance to a fixed point. Noise covariances are diagonal with
standard deviation bound/3, matching the truncated-Gaussian noise model
(the bound is a three-sigma clip).

`step_continuous` is the per-sample update: it takes the mode's A, B and
gain as arrays and returns the new estimate, with no model lookup, copy or
validation, because `simulate` calls it once per sample. The caller keeps
the residual and the settling count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import HybridAutomaton, ModeId

RICCATI_TOL = 1e-9
RICCATI_MAX_ITER = 100_000


class RiccatiError(RuntimeError):
    """Riccati iteration failed to converge for a mode."""


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


def synthesize_gains(
    model: HybridAutomaton,
    tol: float = RICCATI_TOL,
    max_iter: int = RICCATI_MAX_ITER,
) -> KalmanBank:
    """Iterate the Riccati recursion per mode and check closed-loop stability.

    With the identity output map the update is K = P (P + R)^-1 on the
    predicted covariance P, followed by P+ = A (P - K P) A' + Q. The result
    is deterministic for a given model.
    """
    gains: dict[ModeId, KalmanGain] = {}
    for mode in model.modes:
        dyn = mode.dynamics
        n = dyn.dim
        q_cov = np.diag((dyn.w_bounds / 3.0) ** 2)
        r_cov = np.diag((dyn.v_bounds / 3.0) ** 2)
        p = q_cov.copy()
        increment = np.inf
        iterations = 0
        for iterations in range(1, max_iter + 1):
            k = p @ np.linalg.inv(p + r_cov)
            p_next = dyn.a @ (p - k @ p) @ dyn.a.T + q_cov
            increment = float(np.max(np.abs(p_next - p)))
            p = p_next
            if increment < tol:
                break
        else:
            raise RiccatiError(
                f"mode {mode.mode_id!r}: Riccati iteration did not converge "
                f"within {max_iter} steps (last increment {increment:.3e})"
            )
        k = p @ np.linalg.inv(p + r_cov)
        closed = (np.eye(n) - k) @ dyn.a
        radius = float(np.max(np.abs(np.linalg.eigvals(closed)))) if n else 0.0
        if radius >= 1.0:
            raise GainInstabilityError(
                f"mode {mode.mode_id!r}: closed-loop spectral radius {radius:.6g} >= 1"
            )
        gains[mode.mode_id] = KalmanGain(
            gain=k,
            predicted_covariance=p,
            iterations=iterations,
            final_increment=increment,
        )
    return KalmanBank(gains=gains)


def step_continuous(
    a: np.ndarray,
    b: np.ndarray,
    gain: np.ndarray,
    x_est: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """One predict/update step with a mode's A, B and gain: the updated estimate.

    predicted = A x_est + B u, then predicted + K (y - predicted). The
    operation order is part of the result: reassociating it, to (I - K) A
    say, changes the float bits of every trace.
    """
    predicted = a @ x_est + b @ u
    return predicted + gain @ (y - predicted)


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
