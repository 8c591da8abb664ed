"""The per-sample products in one explicit order of Python-float operations.

Every product the run takes per sample, the plant step, B u and the Kalman
update, is written out here as straight-line Python: one `*` per matrix
entry and the sums left to right, each operation rounded once, with no
fused multiply-add and no reduction. For state dimension n and input
width m, with row i of A x written as a_i0 x_0 + a_i1 x_1 + ... from the
left:

- B u is b_i0 u_0 + b_i1 u_1 + ... (0.0 when m = 0);
- the plant step is x' = w + (A x + B u) and y' = v + x' + gamma, with
  gamma a zero row when the output is not attacked: v is never -0.0, so
  neither is v + x', and adding +0.0 keeps its bits;
- the Kalman update is p = A x_est + B u, e = y - p, x_est' = p + K e.

Python's float operations are IEEE-754 double operations, so these bits are
the same on every host, whatever BLAS numpy was built with. The functions
use no `sum`, `math.fsum` or numpy reduction: `sum` of floats is
compensated from Python 3.12 on.

The functions for one (n, m) are generated once and cached, the way
`dataclasses` builds `__init__`: their source is built from those two
integers alone, never from model data. Matrices come in as flat row-major
tuples of floats. The state, output and estimate are read and written in
place through flat `memoryview`s of float64 buffers of n-entry rows, from
the row at an offset o to the row after it, at o + n.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple


class Kernels(NamedTuple):
    """The generated functions of one state dimension n and input width m.

    - `b_times(b, u)`: B u as a tuple, b the n * m entries of B.
    - `plant(x, y, o, a, bu, gamma)`: the state at offset o + n of x holds
      w and the output at offset o + n of y holds v; they become x' and y',
      from the state at offset o of x, A's n * n entries, the tuple bu and
      gamma's n entries, added to y' last.
    - `estimate(x_est, y, o, count, a, k, bu)`: the update of count rows,
      row r + 1 at offset o + (r + 1) * n of x_est from row r and the
      measurement at the same offset of y.
    """

    b_times: Callable[..., tuple[float, ...]]
    plant: Callable[..., None]
    estimate: Callable[..., None]


def _names(stem: str, count: int) -> list[str]:
    return [f"{stem}{i}" for i in range(count)]


def _matrix(stem: str, rows: int, cols: int) -> list[list[str]]:
    return [[f"{stem}{i}_{j}" for j in range(cols)] for i in range(rows)]


def _row_sum(coefficients: list[str], values: list[str]) -> str:
    """The left-to-right sum of products, as source; 0.0 for an empty row."""
    return " + ".join(f"{c} * {v}" for c, v in zip(coefficients, values)) or "0.0"


def _flat(matrix: list[list[str]]) -> list[str]:
    return [entry for row in matrix for entry in row]


def _unpack(names: list[str], source: str) -> str:
    return f"    {', '.join(names)}, = {source}" if names else ""


def _at(offset: str, i: int) -> str:
    return f"{offset} + {i}" if i else offset


def _source(n: int, m: int) -> str:
    """The source text of the three functions of one (n, m)."""
    a, b, gain = _matrix("a", n, n), _matrix("b", n, m), _matrix("k", n, n)
    x, u, bu, g = _names("x", n), _names("u", m), _names("bu", n), _names("g", n)
    new, pred, innov = _names("s", n), _names("p", n), _names("e", n)

    b_times = [
        "def b_times(b, u):",
        _unpack(_flat(b), "b"),
        _unpack(u, "u"),
        f"    return ({''.join(_row_sum(row, u) + ', ' for row in b)})",
    ]

    out = [_at("o", n + i) for i in range(n)]  # row o + n, which the plant step writes
    plant = [
        "def plant(X, Y, o, a, bu, gamma):",
        _unpack(_flat(a), "a"),
        _unpack(bu, "bu"),
        _unpack(g, "gamma"),
        *(f"    {x[i]} = X[{_at('o', i)}]" for i in range(n)),
        *(f"    {new[i]} = X[{out[i]}] + ({_row_sum(a[i], x)} + {bu[i]})" for i in range(n)),
        *(f"    X[{out[i]}] = {new[i]}" for i in range(n)),
        *(f"    Y[{out[i]}] = Y[{out[i]}] + {new[i]} + {g[i]}" for i in range(n)),
    ]
    estimate = [
        "def estimate(E, Y, o, count, a, k, bu):",
        _unpack(_flat(a), "a"),
        _unpack(_flat(gain), "k"),
        _unpack(bu, "bu"),
        *(f"    {x[i]} = E[{_at('o', i)}]" for i in range(n)),
        f"    for o in range(o + {n}, o + (count + 1) * {n}, {n}):",
        *(f"        {pred[i]} = {_row_sum(a[i], x)} + {bu[i]}" for i in range(n)),
        *(f"        {innov[i]} = Y[{_at('o', i)}] - {pred[i]}" for i in range(n)),
        *(f"        {x[i]} = {pred[i]} + ({_row_sum(gain[i], innov)})" for i in range(n)),
        *(f"        E[{_at('o', i)}] = {x[i]}" for i in range(n)),
    ]
    functions = (b_times, plant, estimate)
    return "\n\n".join("\n".join(line for line in lines if line) for lines in functions) + "\n"


@cache
def kernels(n: int, m: int) -> Kernels:
    """The functions of state dimension n >= 1 and input width m >= 0, built on first use."""
    namespace: dict = {}
    exec(compile(_source(n, m), f"<hybridmon.kernels n={n} m={m}>", "exec"), namespace)
    return Kernels(*(namespace[name] for name in Kernels._fields))
