"""Steady-state filter synthesis and the per-step estimate update."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are
from scipy.stats import norm, poisson

from hybridmon import (
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    RiccatiError,
    Transition,
    check_dwell,
    step_continuous,
    synthesize_gains,
)
from hybridmon.kalman import GainInstabilityError

# fixed point of the builtin crossing model's Riccati recursion, frozen from
# a converged run; all three modes share one dynamics matrix so one gain
TG_GAIN = np.array(
    [
        [0.11298129669571991, 0.02242207879493787],
        [0.02242207879493787, 0.05859364501954387],
    ]
)

# theta is declared at about 4.5 standard deviations of the position error;
# the test holds it to at least 4 on every axis
THETA_SIGMAS = 4.0
# one-sided Poisson quantile the count of settled samples past theta may reach
EXCEEDANCE_QUANTILE = 0.999


def single_mode(a, w, v):
    n = len(a)
    return HybridAutomaton(
        modes=(
            Mode(
                "s",
                LtiDynamics(a=a, b=[[0.0]] * n, w_bounds=w, v_bounds=v, input_bound=0.0),
                Invariant(tuple((-10.0, 10.0) for _ in range(n))),
            ),
        ),
        events=(),
        transitions=(),
        dwell_time=1,
        sampling_period=0.1,
        theta=0.05,
    )


class TestSynthesizeGains:
    def test_train_gate_gain_frozen(self, tg_model):
        bank = synthesize_gains(tg_model)
        g = bank.gains[1]
        np.testing.assert_allclose(g.gain, TG_GAIN, rtol=0, atol=1e-12)
        assert g.iterations == 48
        assert g.final_increment < 1e-9

    def test_all_modes_share_the_gain(self, tg_model):
        # same A and noise bounds in every mode, so the fixed points agree
        bank = synthesize_gains(tg_model)
        for q in (2, 3):
            np.testing.assert_array_equal(bank.gains[q].gain, bank.gains[1].gain)

    def test_closed_loop_is_stable(self, tg_model):
        bank = synthesize_gains(tg_model)
        closed = bank.gains[1].closed_loop(tg_model.dynamics(1).a)
        moduli = np.abs(np.linalg.eigvals(closed))
        np.testing.assert_allclose(moduli, 0.8904016958242512, atol=1e-12)

    def test_synthesis_is_deterministic(self, tg_model):
        a = synthesize_gains(tg_model)
        b = synthesize_gains(tg_model)
        for q in tg_model.mode_ids:
            np.testing.assert_array_equal(a.gains[q].gain, b.gains[q].gain)
            np.testing.assert_array_equal(
                a.gains[q].predicted_covariance, b.gains[q].predicted_covariance
            )
            assert a.gains[q].iterations == b.gains[q].iterations

    def test_memoryless_mode_halves_equal_noise(self):
        # A = 0 with w = v: predicted covariance equals R, so K = 1/2 exactly
        # and the closed loop is identically zero
        model = single_mode([[0.0]], [0.3], [0.3])
        gain = synthesize_gains(model).gains["s"]
        assert gain.gain[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert gain.closed_loop(model.dynamics("s").a)[0, 0] == 0.0

    def test_riccati_iteration_budget(self, tg_model):
        with pytest.raises(RiccatiError, match="did not converge"):
            synthesize_gains(tg_model, max_iter=1)

    def test_gain_matrices_are_readonly(self, tg_model):
        gain = synthesize_gains(tg_model).gains[1]
        with pytest.raises(ValueError):
            gain.gain[0, 0] = 0.0

    def test_instability_error_exported(self):
        assert issubclass(GainInstabilityError, RuntimeError)


class TestStepContinuous:
    def test_predict_update_by_hand(self, tg_model):
        # predict, then correct, in this order: (I - K) A is the same map in
        # exact arithmetic but not in floating point, and traces pin the bits
        gain = synthesize_gains(tg_model).gains[1].gain
        dyn = tg_model.dynamics(1)
        x_est = np.array([10.0, 1.0])
        u = np.array([0.5])
        y = np.array([10.2, 0.9])
        predicted = dyn.a @ x_est + dyn.b @ u
        est = step_continuous(dyn.a, dyn.b, gain, x_est, u, y)
        np.testing.assert_array_equal(est, predicted + gain @ (y - predicted))
        np.testing.assert_allclose(est, predicted + TG_GAIN @ (y - predicted), atol=1e-12)


class TestCheckDwell:
    def test_gap_must_exceed_dwell(self, tg_model):
        model = dataclasses.replace(tg_model, dwell_time=50)
        assert check_dwell(model, [100, 400])
        assert check_dwell(model, [100, 152])
        assert not check_dwell(model, [100, 151])  # settled gap exactly 50
        assert not check_dwell(model, [100, 150])

    def test_few_events_are_fine(self, tg_model):
        assert check_dwell(tg_model, [])
        assert check_dwell(tg_model, [7])

    def test_chain_checks_every_gap(self, tg_model):
        model = dataclasses.replace(tg_model, dwell_time=10)
        assert check_dwell(model, [0, 12, 24])
        assert not check_dwell(model, [0, 12, 23])


def _posterior_sigma(dyn):
    """Per-axis standard deviation of the settled filter's estimation error.

    Solves the filter Riccati equation independently of the synthesis
    code; the noise standard deviations are the bounds over three.
    """
    q_cov = np.diag((dyn.w_bounds / 3.0) ** 2)
    r_cov = np.diag((dyn.v_bounds / 3.0) ** 2)
    prior = solve_discrete_are(dyn.a.T, np.eye(dyn.dim), q_cov, r_cov)
    posterior = prior - prior @ np.linalg.inv(prior + r_cov) @ prior
    return np.sqrt(np.diag(posterior))


class TestNominalEstimationQuality:
    def test_steady_residual_within_baseline(self, tg_model, nominal_digest):
        # residuals of settled nominal runs stay under theta + max v bound
        bound = tg_model.theta + tg_model.dynamics(1).v_norm
        worst = max(r.max_residual_steady for r in nominal_digest.runs)
        assert worst <= bound, f"steady residual {worst:.4f} exceeds {bound}"

    def test_steady_estimation_error_within_theta(self, tg_model, nominal_digest):
        # theta is a statistical bound, not a hard one: a constant position
        # offset within the noise bound v is itself a trajectory of the
        # dynamics (eigenvalue 1, eigenvector (1, 0)), so no observer keeps
        # the worst-case error under v. It must sit THETA_SIGMAS standard
        # deviations out on every axis of the Riccati posterior error, and
        # the settled samples past it must be no more frequent than a
        # Gaussian error of that covariance predicts.
        sigma = np.max(
            [_posterior_sigma(tg_model.dynamics(q)) for q in tg_model.mode_ids], axis=0
        )
        assert np.all(tg_model.theta >= THETA_SIGMAS * sigma), sigma
        samples = sum(r.steady_samples for r in nominal_digest.runs)
        exceeded = sum(r.theta_exceedances for r in nominal_digest.runs)
        # two-sided Gaussian tail per axis, summed over axes (a union bound)
        expected = samples * float(np.sum(2.0 * norm.sf(tg_model.theta / sigma)))
        ceiling = poisson.ppf(EXCEEDANCE_QUANTILE, expected)
        assert exceeded <= ceiling, (
            f"{exceeded} of {samples} settled samples exceed theta "
            f"{tg_model.theta}; a Gaussian error with the Riccati covariance "
            f"predicts {expected:.2f}, {EXCEEDANCE_QUANTILE} quantile {ceiling:.0f}"
        )
