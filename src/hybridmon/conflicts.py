"""Three-way conflict detector run against the observer output each sample.

The detector keeps the box of states consistent with the current
measurement, centred at the estimate c with half-widths h = |r| + v.
Conflict A: the box has grown past the volume that bounded noise alone can
explain. Conflict B: the box has no point inside the estimated mode's
invariant. Conflict C: a sensor event fires that the box cannot explain,
because the box misses the slab of states the guard can fire from (the
guard plus its one-step overshoot); the same flag covers the box's
reachable set over the mode's horizon leaving the invariant, which shows
the state cannot be where the mode says it is. Any one of them marks the
sample anomalous.

A, B and the event check are interval comparisons on c +/- h. The horizon
check is a separating-axis test against a per-mode table: the facet normals
N of A^delta X_I + sigma-ball + (-invariant) are cross products of
(n-1)-subsets of {A^delta e_i} and the coordinate axes, whatever the box
widths, so each mode computes N, M = N A^delta, |M|,
s = sigma ||N||_1 + |N| rho_inv and N mid_inv once, and a sample leaves the
invariant exactly when any(|M c - N mid_inv| > |M| h + s). Contact counts as
meeting. A mode with a table builds no zonotope per sample.

Nothing the detector returns feeds back into the plant, the controller or
the observers, so `Detector.evaluate_rows` decides a block of samples in one
pass: interval tests on (k, n) arrays and one stacked product per mode. It
is the one way to ask the detector: `simulate` calls it once per 128
samples, and the verdict for a single sample is a block of one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .guarantees import facet_epsilon
from .model import HybridAutomaton, ModeId, decompose_regions
from .reachability import (
    Zonotope,
    compute_all_deltas,
    inflate,
    intersects_box,
    linear_map,
    separating_normals,
    sigma_sum,
)


@dataclass(frozen=True)
class ConflictRows:
    """Verdict columns of a block of samples, one entry per row."""

    estimated_mode: tuple[ModeId | None, ...]
    warming_up: np.ndarray
    conflict_a: np.ndarray
    conflict_b: np.ndarray
    conflict_c: np.ndarray
    volume: np.ndarray

    @property
    def alarm(self) -> np.ndarray:
        return self.conflict_a | self.conflict_b | self.conflict_c


def _reach_set(
    horizon: tuple[np.ndarray, float], center: np.ndarray, half: np.ndarray
) -> Zonotope:
    a_power, sigma = horizon
    return inflate(linear_map(a_power, Zonotope(center, np.diag(half))), sigma)


def volume_bound(model: HybridAutomaton) -> float:
    """Largest initial-set volume bounded noise can produce: prod(2*theta + 4*v_i)."""
    return float(np.prod(2.0 * model.theta + 4.0 * model.max_v_bounds))


@dataclass(frozen=True)
class _HorizonTable:
    """Separating-axis table of one mode's horizon check (see the module docstring)."""

    m: np.ndarray  # N A^delta
    m_abs: np.ndarray  # |N A^delta|
    slack: np.ndarray  # sigma ||N||_1 + |N| rho_inv
    n_mid: np.ndarray  # N mid_inv

    @classmethod
    def build(
        cls, a_power: np.ndarray, sigma: float, inv_lo: np.ndarray, inv_hi: np.ndarray
    ) -> _HorizonTable | None:
        """The table, or None when A^delta X_I + sigma-ball + (-invariant) can be flat.

        The sum always has the coordinate axes among its generators when
        sigma > 0 or every invariant axis has positive width; then it is
        full-dimensional for every box, and the normals over {A^delta e_i}
        and the axes include all its facet normals. Otherwise a box with
        zero half-widths could make it flat, and the test needs
        `intersects_box` and its linear program.
        """
        rho = (inv_hi - inv_lo) / 2.0
        if sigma <= 0.0 and not np.all(rho > 0.0):
            return None
        normals = separating_normals(np.vstack([a_power.T, np.eye(a_power.shape[0])]))
        if normals is None:
            return None
        m = normals @ a_power
        return cls(
            m=m,
            m_abs=np.abs(m),
            slack=sigma * np.sum(np.abs(normals), axis=1) + np.abs(normals) @ rho,
            n_mid=normals @ ((inv_lo + inv_hi) / 2.0),
        )

    def misses(self, centers: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Per row: the reach set of the box (centers[i], half[i]) has no point
        in the invariant.

        The products are stacked, one matrix-vector product per row, so each
        row gets the bits of `m @ centers[i]`; a single `centers @ m.T` sums
        in another order and can flip a verdict at contact.
        """
        gap = np.abs((self.m @ centers[..., None])[..., 0] - self.n_mid)
        reach = (self.m_abs @ half[..., None])[..., 0] + self.slack
        return (gap > reach).any(axis=1)


class Detector:
    """Conflict evaluator with per-mode geometry precomputed once.

    Holds each mode's invariant bounds, noise bounds, horizon, matrix power
    over the horizon and accumulated inflation radius, each guard's
    overshoot slab, and, for each mode with a positive horizon, the
    separating-axis table of its horizon check. A block of samples costs a
    handful of interval comparisons and one stacked matrix-vector product
    per mode.
    A mode whose table cannot be exact (sigma = 0 and a zero-width
    invariant axis) builds its reach set per settled sample and decides it
    with `intersects_box`, which solves a linear program if that set minus
    the invariant is flat.
    """

    def __init__(
        self, model: HybridAutomaton, deltas: Mapping[ModeId, int] | None = None
    ) -> None:
        self.model = model
        if deltas is None:
            deltas = compute_all_deltas(model, decompose_regions(model))
        self.deltas = dict(deltas)
        self.volume_bound = volume_bound(model)
        self._v = {q: model.dynamics(q).v_bounds for q in model.mode_ids}
        self._fallback_v = model.max_v_bounds
        self._inv: dict[ModeId, tuple[np.ndarray, np.ndarray]] = {}
        self._horizon: dict[ModeId, tuple[np.ndarray, float]] = {}
        self._tables: dict[ModeId, _HorizonTable | None] = {}
        for mode_id in model.mode_ids:
            inv_lo, inv_hi = model.invariant(mode_id).bounds()
            self._inv[mode_id] = (inv_lo, inv_hi)
            delta = self.deltas[mode_id]
            if delta <= 0:
                continue
            dyn = model.dynamics(mode_id)
            a_power = np.linalg.matrix_power(dyn.a, delta)
            sigma = sigma_sum(dyn.a_norm, delta, dyn.step_bound)
            self._horizon[mode_id] = (a_power, sigma)
            self._tables[mode_id] = _HorizonTable.build(a_power, sigma, inv_lo, inv_hi)
        # guard-axis slab a firing state lies in: from the guard to the
        # farthest one-step overshoot (`facet_epsilon`), the geometry behind
        # the z* threshold
        self._slabs: dict[tuple[str, str], list[tuple[ModeId, int, float, float]]] = {}
        for tr in model.transitions:
            c_g = tr.guard.threshold
            far = facet_epsilon(model, tr)
            far = max(far, c_g) if tr.guard.sign > 0 else min(far, c_g)
            self._slabs.setdefault((tr.input_event, tr.output_event), []).append(
                (tr.source, tr.guard.axis, min(c_g, far), max(c_g, far))
            )

    def evaluate_rows(
        self,
        nodes: Sequence[tuple[ModeId, ...]],
        steady: Sequence[bool],
        centers: np.ndarray,
        residuals: np.ndarray,
        events: Sequence[tuple[str, str] | None],
    ) -> ConflictRows:
        """Verdicts for a block of samples, one row each.

        Row i holds the observer node, the settled flag, the estimate, the
        residual and the event pair (or None) of one sample. Nothing here
        depends on another row, so a block gives the bits that its rows give
        one at a time.

        On a settled row with an event, the event is checked against the box:
        conflict C when no transition of the node with that pair has a guard
        slab the box meets. The event names the transitions, so this check
        needs no singleton node, and a sole source mode becomes the estimated
        mode. A, B and the horizon part of C wait for a settled singleton
        node; until then the row is marked warming up.
        """
        k = len(nodes)
        for name, column in (("steady", steady), ("events", events)):
            if len(column) != k:
                raise ValueError(f"{name} has length {len(column)}, but the block has {k} rows")
        centers = np.asarray(centers, dtype=float)
        residuals = np.asarray(residuals, dtype=float)
        steady = np.asarray(steady, dtype=bool)
        if centers.shape != (k, self.model.dim) or residuals.shape != centers.shape:
            raise ValueError("residual/noise dimensions do not match the estimate")
        if k and nodes.count(nodes[0]) == k:
            # the usual block: one node throughout, whose rows are a slice
            groups: dict[tuple[ModeId, ...], slice | list[int]] = {nodes[0]: slice(None)}
            estimated = [nodes[0][0] if len(nodes[0]) == 1 else None] * k
        else:
            groups = {}
            for i, node in enumerate(nodes):
                groups.setdefault(node, []).append(i)
            estimated = [node[0] if len(node) == 1 else None for node in nodes]
        v = np.empty_like(centers)
        for node, rows in groups.items():
            v[rows] = self._v[node[0]] if len(node) == 1 else self._fallback_v
        half = np.abs(residuals) + v
        lo, hi = centers - half, centers + half
        vol = (2.0 * half).prod(axis=1)
        unexplained = np.zeros(k, dtype=bool)
        # an event pair is a non-empty tuple, so a block without events skips the scan
        for i, event in enumerate(events if any(events) else ()):
            if event is None or not steady[i]:
                continue
            slabs = [s for s in self._slabs.get(event, ()) if s[0] in nodes[i]]
            unexplained[i] = not any(
                lo[i, axis] <= s_hi and hi[i, axis] >= s_lo for _, axis, s_lo, s_hi in slabs
            )
            sources = {s[0] for s in slabs}
            if estimated[i] is None and len(sources) == 1:
                estimated[i] = sources.pop()
        armed = np.zeros(k, dtype=bool)
        conflict_b = np.zeros(k, dtype=bool)
        conflict_c = unexplained.copy()
        for node, rows in groups.items():
            if len(node) != 1:
                continue
            settled = steady[rows]
            if not np.count_nonzero(settled):
                continue
            mode_id = node[0]
            armed[rows] = settled
            inv_lo, inv_hi = self._inv[mode_id]
            outside = ((hi[rows] < inv_lo) | (lo[rows] > inv_hi)).any(axis=1)
            conflict_b[rows] = settled & outside
            horizon = self._horizon.get(mode_id)
            if horizon is None:
                continue
            checked = settled & ~unexplained[rows]
            table = self._tables[mode_id]
            if table is not None:
                conflict_c[rows] |= checked & table.misses(centers[rows], half[rows])
                continue
            invariant = tuple(zip(inv_lo, inv_hi))
            for i in np.arange(k)[rows][checked]:
                reach_set = _reach_set(horizon, centers[i], half[i])
                conflict_c[i] = not intersects_box(reach_set, invariant)
        return ConflictRows(
            estimated_mode=tuple(estimated),
            warming_up=~armed,
            conflict_a=armed & (vol > self.volume_bound),
            conflict_b=conflict_b,
            conflict_c=conflict_c,
            volume=vol,
        )
