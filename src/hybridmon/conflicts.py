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
meeting. That is exact only while the sum is full-dimensional for every box
the mode can see, so a mode whose sum can be flat, or whose table is too
large to build, is refused when the detector is built (`HorizonError`); the
detector builds no zonotope and solves no linear program.

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
    MAX_NORMAL_SUBSETS,
    HorizonError,
    compute_all_deltas,
    reach_operator,
    separating_normals,
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


def volume_bound(model: HybridAutomaton) -> float:
    """Largest initial-set volume bounded noise can produce: prod(2*theta + 4*v_i).

    v is the model's measurement noise bound, which every mode shares.
    """
    return float(np.prod(2.0 * model.theta + 4.0 * np.array(model.v_bounds)))


@dataclass(frozen=True)
class _HorizonTable:
    """Separating-axis table of one mode's horizon check (see the module docstring)."""

    m: np.ndarray  # N A^delta
    m_abs: np.ndarray  # |N A^delta|
    slack: np.ndarray  # sigma ||N||_1 + |N| rho_inv
    n_mid: np.ndarray  # N mid_inv

    @classmethod
    def build(cls, model: HybridAutomaton, mode_id: ModeId, delta: int) -> _HorizonTable:
        """The table of the mode's horizon check at horizon delta.

        The test is exact when A^delta X_I + sigma-ball + (-invariant) is
        full-dimensional for every box X_I = c +/- (|r| + v) the mode can
        see: then the normals over {A^delta e_i} and the axes include all
        its facet normals. That holds when sigma > 0, or when the columns of
        A^delta on the axes with v > 0 and the invariant's positive-width
        axes span the space. The rank is judged on those columns scaled by
        v, the generators of the reach set at zero residual, so a refusal
        means that set is flat to rounding. Raises HorizonError otherwise,
        and when the table needs more than MAX_NORMAL_SUBSETS normal subsets.
        """
        inv_lo, inv_hi = model.invariant(mode_id).bounds()
        a_power, sigma = reach_operator(model, mode_id, delta)
        n = a_power.shape[0]
        rho = (inv_hi - inv_lo) / 2.0
        where = f"mode {mode_id!r}, horizon {delta}"
        spans = np.vstack([np.array(model.v_bounds)[:, None] * a_power.T, np.eye(n)[rho > 0.0]])
        if sigma <= 0.0 and (rank := np.linalg.matrix_rank(spans)) < n:
            raise HorizonError(
                f"{where}: sigma = 0, and the columns of A^{delta} on the axes with measurement "
                f"noise and the invariant's positive-width axes span {rank} of {n} dimensions, "
                "so the reach set less the invariant can be flat"
            )
        normals = separating_normals(a_power.T)
        if normals is None:
            raise HorizonError(
                f"{where}: the separating-axis table in {n} dimensions needs more than "
                f"MAX_NORMAL_SUBSETS = {MAX_NORMAL_SUBSETS} normal subsets"
            )
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
        in another order and can flip a verdict at contact. For k rows and M
        normals the check holds two k x M float arrays, each product taken
        further in place, and the k x M bools of their comparison.
        """
        gap = (self.m @ centers[..., None])[..., 0]
        gap -= self.n_mid
        np.abs(gap, out=gap)
        reach = (self.m_abs @ half[..., None])[..., 0]
        reach += self.slack
        return (gap > reach).any(axis=1)


class Detector:
    """Conflict evaluator with per-mode geometry precomputed once.

    Holds each mode's invariant bounds, each guard's overshoot slab, and,
    for each mode with a positive horizon, the separating-axis table of its
    horizon check. A block of samples costs a handful of interval
    comparisons and one stacked matrix-vector product per mode. Raises
    HorizonError, naming the mode and its horizon, for a mode whose table
    cannot be exact (sigma = 0 and a reach set less the invariant that can
    be flat) or is too large (more than MAX_NORMAL_SUBSETS normal subsets,
    first at n = 8).
    """

    def __init__(
        self, model: HybridAutomaton, deltas: Mapping[ModeId, int] | None = None
    ) -> None:
        self.model = model
        if deltas is None:
            deltas = compute_all_deltas(model, decompose_regions(model))
        self.deltas = dict(deltas)
        self.volume_bound = volume_bound(model)
        self._inv = {q: model.invariant(q).bounds() for q in model.mode_ids}
        self._tables = {
            q: _HorizonTable.build(model, q, self.deltas[q])
            for q in model.mode_ids
            if self.deltas[q] > 0
        }
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

        A row whose event the box explains is judged in the set its state
        can lie in: the source invariant joined with the guard slabs of the
        transitions that explain the event. A firing state has crossed the
        guard, by at most the one-step overshoot, so on a nominal run it
        lies in that join though it may have left the invariant, as
        train-gate's stop event at 80 m leaves [75, 80] on every run. The
        box meets one of those slabs, so it meets the join and B is false.
        The horizon check is skipped on the row for the same reason: it
        asks the mode's reach set to meet the invariant, which a state past
        the guard owes nothing, as it leaves the mode at the next sample.
        So the event check alone decides C on an event row; rows without
        an event are judged as before.

        Of its own (k, n) float arrays the pass holds the box half-widths
        |r| + v for its whole length, and the box bounds c -/+ h only
        through the event check and B; the horizon checks, each holding two
        k x M arrays for its mode's M normals, run after those are dropped.
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
        half = np.abs(residuals)
        half += self.model.v_bounds
        lo, hi = centers - half, centers + half
        vol = (2.0 * half).prod(axis=1)
        unexplained = np.zeros(k, dtype=bool)
        # settled rows with an event, which B and the horizon check leave to the event check
        evented = np.zeros(k, dtype=bool)
        # an event pair is a non-empty tuple, so a block without events skips the scan
        for i, event in enumerate(events if any(events) else ()):
            if event is None or not steady[i]:
                continue
            evented[i] = True
            slabs = [s for s in self._slabs.get(event, ()) if s[0] in nodes[i]]
            unexplained[i] = not any(
                lo[i, axis] <= s_hi and hi[i, axis] >= s_lo for _, axis, s_lo, s_hi in slabs
            )
            sources = {s[0] for s in slabs}
            if estimated[i] is None and len(sources) == 1:
                estimated[i] = sources.pop()
        armed = np.zeros(k, dtype=bool)
        conflict_b = np.zeros(k, dtype=bool)
        # B for every settled singleton group first, so that lo and hi are
        # gone before the horizon checks, whose products set the block's peak
        decided = []
        for node, rows in groups.items():
            if len(node) != 1:
                continue
            settled = steady[rows]
            if not np.count_nonzero(settled):
                continue
            armed[rows] = settled
            inv_lo, inv_hi = self._inv[node[0]]
            outside = ((hi[rows] < inv_lo) | (lo[rows] > inv_hi)).any(axis=1)
            conflict_b[rows] = settled & outside & (unexplained[rows] | ~evented[rows])
            decided.append((node[0], rows, settled))
        del lo, hi
        conflict_c = unexplained.copy()
        for mode_id, rows, settled in decided:
            table = self._tables.get(mode_id)
            if table is not None:
                checked = settled & ~evented[rows]
                conflict_c[rows] |= checked & table.misses(centers[rows], half[rows])
        return ConflictRows(
            estimated_mode=tuple(estimated),
            warming_up=~armed,
            conflict_a=armed & (vol > self.volume_bound),
            conflict_b=conflict_b,
            conflict_c=conflict_c,
            volume=vol,
        )
