"""The generated per-sample functions: the reference's order, and the same bits on any host."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_reference import kalman_step, matvec, plant_step

from hybridmon.kernels import _source, kernels

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# signed zeros and subnormals next to ordinary magnitudes that cannot overflow
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
)


def _flat(matrix):
    return tuple(np.asarray(matrix, dtype=float).ravel().tolist())


def _views(*arrays):
    return tuple(memoryview(array.reshape(-1)) for array in arrays)


def _run(dim, inputs, a, b, gain, u, x, w, v, gamma, y_rows):
    """Every generated function of (dim, inputs) on one set of inputs, as float arrays."""
    kern = kernels(dim, inputs)
    bu = kern.b_times(_flat(b), _flat(u))
    xs, ys = np.array((x, w)), np.array((np.full(dim, np.nan), v))
    kern.plant(*_views(xs, ys), 0, _flat(a), bu, _flat(gamma))
    estimates = np.full((len(y_rows), dim), np.nan)
    estimates[0] = x
    kern.estimate(*_views(estimates, y_rows), 0, len(y_rows) - 1, _flat(a), _flat(gain), bu)
    return [np.array(bu), xs[1], ys[1], estimates[1:]]


class TestGenerated:
    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    @given(st.data())
    def test_functions_are_the_reference(self, data):
        # B u, the plant step, and a stretch of Kalman rows equal the
        # reference's per-entry loops, bit for bit
        dim, inputs = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
        rows = data.draw(st.integers(1, 4))

        def arrays(*shape):
            count = int(np.prod(shape))
            values = data.draw(st.lists(_EDGE_FLOATS, min_size=count, max_size=count))
            return np.array(values, dtype=float).reshape(shape)

        a, gain, b = arrays(dim, dim), arrays(dim, dim), arrays(dim, inputs)
        u, x, w, v, gamma = arrays(inputs), arrays(dim), arrays(dim), arrays(dim), arrays(dim)
        y_rows = arrays(rows + 1, dim)
        bu, x_next, y_next, estimates = _run(dim, inputs, a, b, gain, u, x, w, v, gamma, y_rows)
        want_bu = np.array(matvec(b, u))
        want_x = plant_step(a, b, x, u, w)
        assert bu.tobytes() == want_bu.tobytes()
        assert x_next.tobytes() == want_x.tobytes()
        assert y_next.tobytes() == (v + want_x + gamma).tobytes()
        est = x
        for r in range(rows):
            est = kalman_step(a, want_bu, gain, est, y_rows[r + 1])
            assert estimates[r].tobytes() == est.tobytes()

    @pytest.mark.parametrize("dim, inputs", [(1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (6, 3)])
    def test_source_has_no_reduction(self, dim, inputs):
        # `sum` of floats is compensated from Python 3.12 on, so a reduction
        # would change the bits with the interpreter
        source = _source(dim, inputs)
        for word in ("sum", "fsum", "np.", "numpy", "dot", "@"):
            assert word not in source

    def test_no_inputs_gives_zero(self):
        assert kernels(2, 0).b_times((), ()) == (0.0, 0.0)

    def test_functions_are_built_once(self):
        assert kernels(3, 2) is kernels(3, 2)

    def test_pinned_digest(self):
        # fixed inputs of rational values, no generator: every host and every
        # Python must give these bytes
        def values(count, salt):
            return np.array([((k * 7 + salt) % 23 - 11) / 13.0 for k in range(count)])

        digest = hashlib.sha256()
        for dim, inputs in ((1, 1), (2, 1), (3, 2), (4, 2)):
            a = values(dim * dim, 1).reshape(dim, dim) / 2.0
            gain = values(dim * dim, 2).reshape(dim, dim) / 3.0
            b, u = values(dim * inputs, 3).reshape(dim, inputs), values(inputs, 4)
            x, w, v, gamma = (values(dim, salt) for salt in (5, 6, 7, 8))
            y_rows = values(50 * dim, 9).reshape(50, dim) * 10.0
            for array in _run(dim, inputs, a, b, gain, u, x, w, v, gamma, y_rows):
                digest.update(array.tobytes())
        assert digest.hexdigest() == PINNED_DIGEST


PINNED_DIGEST = "f84624051f5e23a60de679e12b198022d81c0446ed30db90f74198848e355916"


# Train-gate seeds 0-3 with literal gains, since the Riccati solve goes
# through LAPACK and BLAS; prints the SHA-256 of their float columns, or of a
# dot probe. Seed 0 alone does not show the kernel: its rows happen to round
# alike either way.
_BLAS_SCRIPT = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "probe":
    rng = np.random.default_rng(0)
    pairs = zip(rng.standard_normal((2000, 3, 3)), rng.standard_normal((2000, 3)))
    rows = [m.dot(x) for m, x in pairs]
    print(hashlib.sha256(np.array(rows).tobytes()).hexdigest())
    sys.exit()
from hybridmon import simulate
from hybridmon.train_gate import train_gate_model, train_gate_scenario
from loop_reference import literal_bank
bank = literal_bank(train_gate_model())
digest = hashlib.sha256()
for seed in range(4):
    trace = simulate(train_gate_scenario(seed=seed), bank=bank).trace
    for name in ("x_true", "y", "x_est", "residual", "volume"):
        digest.update(getattr(trace, name).tobytes())
print(digest.hexdigest())
"""


def _under_core(core, what):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_SCRIPT, what],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel",
)
def test_traces_do_not_depend_on_the_blas_kernel():
    # OpenBLAS's default kernel on a current x86-64 CPU fuses multiply and
    # add, the Prescott kernel does not; the trace's float columns must not
    # see which one numpy loaded
    if _under_core(None, "probe") == _under_core("Prescott", "probe"):
        pytest.skip("the Prescott core type does not change a dot product here")
    assert _under_core(None, "run") == _under_core("Prescott", "run")
