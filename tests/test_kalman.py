"""Steady-state filter synthesis and the per-step estimate update."""

import dataclasses
import re

import analysis_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    synthesize_gains,
    validate_model,
)
from hybridmon.kalman import (
    GainInstabilityError,
    _inv,
    _solve_riccati,
    step_rows,
)

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

    def test_axis_without_noise_is_named(self):
        # w = v = 0 on axis 1 leaves P + R singular on the first step
        model = single_mode([[0.5, 0.0], [0.0, 0.5]], [0.01, 0.0], [0.1, 0.0])
        with pytest.raises(
            RiccatiError,
            match=r"^mode 's': axis 1 has zero process and measurement noise variance "
            r"\(w = 0, v = 0\), so P \+ R is singular$",
        ):
            synthesize_gains(model)

    @pytest.mark.parametrize("w, v", [(1e-155, 1e-155), (0.0, 1e-160), (1e-160, 0.0)])
    def test_axis_with_underflowing_noise_is_named(self, w, v):
        # the variances are subnormal, not zero; but 1 / (Q + R) overflows,
        # and the first step would turn P into NaN. validate_model names the
        # axis in the words of the solve.
        model = single_mode([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]], [w] * 3, [v] * 3)
        named = (
            rf"mode 's': axis 0 has process and measurement noise variances "
            rf"\(w = {w:g}, v = {v:g}\) too small to invert: 1 / \(Q \+ R\) is not finite$"
        )
        (problem,) = validate_model(model)
        assert re.fullmatch("noise: " + named, problem)
        with pytest.raises(RiccatiError, match="^" + named):
            synthesize_gains(model)

    def test_non_finite_increment_fails_at_once(self):
        # the first step overflows P[0, 0]; the solve stops there instead of
        # running all RICCATI_MAX_ITER steps on NaN
        model = single_mode([[1e200, 0.0], [0.0, 0.5]], [0.01, 0.01], [0.1, 0.1])
        with pytest.raises(
            RiccatiError, match=r"^mode 's': Riccati increment inf is not finite at step 1$"
        ):
            synthesize_gains(model)

    def test_singular_inversion_names_the_ufunc(self):
        # P grows to a rank-one matrix so large that R vanishes next to it:
        # P + R is singular at step 2 though no axis lacks noise
        model = single_mode([[1e100, 1e100], [1e100, 1e100]], [0.3, 0.3], [0.3, 0.3])
        with pytest.raises(
            RiccatiError, match=r"^mode 's': invalid value encountered in inv at Riccati step 2$"
        ) as caught:
            synthesize_gains(model)
        assert isinstance(caught.value.__cause__, FloatingPointError)

    def test_gain_matrices_are_readonly(self, tg_model):
        gain = synthesize_gains(tg_model).gains[1]
        with pytest.raises(ValueError):
            gain.gain[0, 0] = 0.0

    def test_instability_error_exported(self):
        assert issubclass(GainInstabilityError, RuntimeError)


def _two_modes(a1, a2, v1, v2):
    """Two 2-D modes with the given A and v bounds, the same w and B."""
    def mode(mode_id, a, v, box):
        dyn = LtiDynamics(a=a, b=[[0.0], [0.1]], w_bounds=[0.01, 0.02], v_bounds=v, input_bound=1.0)
        return Mode(mode_id, dyn, Invariant(box))

    return HybridAutomaton(
        modes=(
            mode(1, a1, v1, ((0.0, 11.0), (0.0, 1.0))),
            mode(2, a2, v2, ((10.0, 20.0), (0.0, 1.0))),
        ),
        events=(),
        transitions=(),
        dwell_time=1,
        sampling_period=0.1,
        theta=0.05,
    )


def _same_bits(x, y):
    return (
        x.gain.tobytes() == y.gain.tobytes()
        and x.predicted_covariance.tobytes() == y.predicted_covariance.tobytes()
        and x.iterations == y.iterations
        and x.final_increment == y.final_increment
    )


class TestSharedSolves:
    A = [[1.0, 0.1], [0.0, 0.9]]
    A_NEG_ZERO = [[1.0, 0.1], [-0.0, 0.9]]
    V = [0.1, 0.1]

    def test_equal_dynamics_share_one_gain(self, tg_model):
        bank = synthesize_gains(tg_model)
        assert bank.gains[2] is bank.gains[1] and bank.gains[3] is bank.gains[1]
        bank = synthesize_gains(_two_modes(self.A, [row[:] for row in self.A], self.V, self.V))
        assert bank.gains[2] is bank.gains[1]

    @pytest.mark.parametrize(
        "a2, v2",
        [(A_NEG_ZERO, V), (A, [0.1, 0.12])],
        ids=["negative-zero-in-A", "per-mode-noise"],
    )
    def test_distinct_dynamics_solve_apart(self, a2, v2):
        model = _two_modes(self.A, a2, self.V, v2)
        bank = synthesize_gains(model)
        assert bank.gains[1] is not bank.gains[2]
        for mode in model.modes:
            alone = dataclasses.replace(model, modes=(mode,))
            assert _same_bits(bank.gains[mode.mode_id], synthesize_gains(alone).gains[mode.mode_id])


# entries of A: signed zeros, +-1 and magnitudes up to 1, so that no solve
# overflows; noise bounds of 0 or up to 1
_A_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
_BOUNDS = st.floats(1e-3, 1.0)
# enough steps for every converging draw seen, far fewer than RICCATI_MAX_ITER
# so that a draw that does not converge fails fast on both sides
_ORACLE_MAX_ITER = 3_000


@st.composite
def _riccati_dynamics(draw):
    """1-D to 5-D dynamics with mirrored axes and w or v, never both, zero on some axes."""
    dim = draw(st.integers(1, 5))
    a = np.array(draw(st.lists(_A_ENTRIES, min_size=dim * dim, max_size=dim * dim)))
    a = a.reshape(dim, dim)
    for axis in draw(st.sets(st.integers(0, dim - 1))):
        # as mirroring a model on an axis does: a 0.0 off the diagonal turns into -0.0
        a[axis, :] *= -1.0
        a[:, axis] *= -1.0
    w, v = [], []
    for _ in range(dim):
        silent = draw(st.sampled_from(("w", "v", None)))
        w.append(0.0 if silent == "w" else draw(_BOUNDS))
        v.append(0.0 if silent == "v" else draw(_BOUNDS))
    return LtiDynamics(a=a, b=np.zeros((dim, 1)), w_bounds=w, v_bounds=v, input_bound=0.0)


def _outcome(solve, dyn):
    """The bytes of a solve's result, or the type and text of its error."""
    try:
        g = solve("q", dyn, _ORACLE_MAX_ITER)
    except (RiccatiError, GainInstabilityError) as error:
        return type(error), str(error)
    return (
        g.gain.tobytes(),
        g.predicted_covariance.tobytes(),
        g.iterations,
        np.float64(g.final_increment).tobytes(),
    )


class TestRiccatiReference:
    """The solve gives the bits of `tests/analysis_reference.py`'s `np.linalg.inv` and `@` loop."""

    @settings(max_examples=150, deadline=None)
    @given(_riccati_dynamics())
    def test_solve_is_the_reference(self, dyn):
        assert _outcome(_solve_riccati, dyn) == _outcome(analysis_reference.solve_riccati, dyn)

    @pytest.mark.parametrize("a", [0.0, -0.0, -0.5, -1.0, 1.0])
    @pytest.mark.parametrize("w, v", [(0.0, 0.3), (0.3, 0.0), (0.3, 0.3)])
    def test_one_dimension_has_the_signs_of_matmul(self, a, w, v):
        # a 1 x 1 dot can keep a -0.0 where @ gives +0.0; with w = 0 and
        # A <= -0.0 the solve forms such products, and they must not show
        dyn = LtiDynamics(a=[[a]], b=[[0.0]], w_bounds=[w], v_bounds=[v], input_bound=0.0)
        assert _outcome(_solve_riccati, dyn) == _outcome(analysis_reference.solve_riccati, dyn)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_inversion_is_linalg_inv(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim))
        spd = m @ m.T + rng.uniform(1e-6, 1.0) * np.eye(dim)
        assert _inv(spd, signature="d->d").tobytes() == np.linalg.inv(spd).tobytes()


def one_step(a, gain, bu, x_est, y):
    """One predict/update step: `step_rows` on a fresh block of one row of one seed."""
    rows = np.array((x_est, np.full_like(x_est, np.nan)))[:, None]
    meas = np.array((np.full_like(y, np.nan), y))[:, None]
    bu = np.array(bu, dtype=float)[None]
    step_rows([a], [gain], bu, rows, meas, 0, 1, np.empty((3, 1, len(y))))
    return rows[1, 0]


class TestStepContinuous:
    """One step of the continuous estimate."""

    def test_predict_update_by_hand(self, tg_model):
        # predict, then correct, in this order: (I - K) A is the same map in
        # exact arithmetic but not in floating point, and traces pin the bits
        gain = synthesize_gains(tg_model).gains[1].gain
        dyn = tg_model.dynamics(1)
        x_est = np.array([10.0, 1.0])
        u = np.array([0.5])
        y = np.array([10.2, 0.9])
        predicted = dyn.a @ x_est + dyn.b @ u
        est = one_step(dyn.a, gain, dyn.b @ u, x_est, y)
        assert est.tobytes() == (predicted + gain @ (y - predicted)).tobytes()
        np.testing.assert_allclose(est, predicted + TG_GAIN @ (y - predicted), atol=1e-12)


# signed zeros next to ordinary magnitudes that cannot overflow
_STEP_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-100.0, 100.0))


@st.composite
def _segmented_block(draw):
    """A block of rows of 1-5 seeds cut into segments, each seed with its own A, K and B u."""
    seeds = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 10))
    vectors = st.lists(_STEP_FLOATS, min_size=dim, max_size=dim).map(np.array)
    matrices = st.lists(_STEP_FLOATS, min_size=dim * dim, max_size=dim * dim).map(
        lambda values: np.array(values).reshape(dim, dim)
    )
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=3)) if rows > 1 else set())
    bounds = [0, *cuts, rows]
    per_seed = (matrices, matrices, vectors)
    segments = [
        (lo, hi, *(np.array([draw(kind) for _ in range(seeds)]) for kind in per_seed))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    count = (rows + 2) * seeds * dim
    values = np.array(draw(st.lists(_STEP_FLOATS, min_size=count, max_size=count)))
    starts, y = values[: seeds * dim].reshape(seeds, dim), values[seeds * dim :]
    return starts, y.reshape(rows + 1, seeds, dim), segments


class TestStepRows:
    @settings(max_examples=150, deadline=None)
    @given(_segmented_block())
    def test_rows_are_repeated_one_row_steps(self, case):
        # the monitor pass steps a block of every seed one (A, K, B u)
        # segment at a time; row for row and seed for seed it must give the
        # bits of one step per sample of that seed alone, and of the formula
        # with a fresh innovation and correction per step
        starts, y, segments = case
        seeds, dim = starts.shape
        # row r of every seed at [r], as the loop's buffers hold them
        rows = np.full((y.shape[0], seeds, dim), np.nan)
        rows[0] = starts
        scratch = np.empty((3, seeds, dim))
        for lo, hi, a, gain, bu in segments:
            step_rows(list(a), list(gain), bu, rows, y, lo, hi, scratch)
        for s in range(seeds):
            est = starts[s]
            for lo, hi, a, gain, bu in segments:
                for r in range(lo + 1, hi + 1):
                    prev, est = est, one_step(a[s], gain[s], bu[s], est, y[r, s])
                    fresh = a[s].dot(prev)
                    fresh += bu[s]
                    fresh += gain[s].dot(y[r, s] - fresh)
                    assert rows[r, s].tobytes() == est.tobytes() == fresh.tobytes()


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
