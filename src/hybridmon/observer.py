"""Discrete-state observer built by subset construction over event pairs.

The observer tracks the set of modes consistent with the observed
input/output event pairs, starting from the full mode set (unknown initial
mode). Current-state observability asks for the least number of event pairs
after which every reachable node is a singleton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .model import Fsm, ModeId

Node = tuple[ModeId, ...]
EventPair = tuple[str, str]


class DiscreteInconsistencyError(Exception):
    """An observed event pair is impossible at the current observer node.

    The nominal model cannot produce this pair here, so the discrete monitor
    itself has detected an anomaly (independent of the three conflicts).
    """

    def __init__(self, node: Node, pair: EventPair) -> None:
        super().__init__(f"event pair {pair} is not active at observer node {node}")
        self.node = node
        self.pair = pair


@dataclass(frozen=True)
class ObserverFsm:
    """Observer automaton: nodes are sorted tuples of mode ids."""

    root: Node
    nodes: frozenset[Node]
    transitions: Mapping[tuple[Node, EventPair], Node]


@dataclass(frozen=True)
class ObservabilityResult:
    observable: bool
    k: int | None
    witness: frozenset[Node]  # non-singleton nodes reachable arbitrarily late


def _canon(states) -> Node:
    return tuple(sorted(states, key=str))


def build_observer(fsm: Fsm) -> ObserverFsm:
    """Fixed-point subset construction from the all-modes root node.

    A node's successor under pair (psi, omega) collects the targets of every
    member mode whose transition on psi emits omega. Nodes are canonicalized
    as sorted tuples so the fixed point terminates on structural identity.
    """
    root = _canon(fsm.states)
    nodes: set[Node] = {root}
    transitions: dict[tuple[Node, EventPair], Node] = {}
    queue: deque[Node] = deque([root])
    while queue:
        node = queue.popleft()
        pairs = {pair for q in node for pair in fsm.active_pairs(q)}
        for pair in sorted(pairs):
            psi, omega = pair
            successor = _canon(
                {
                    fsm.transitions[(q, psi)]
                    for q in node
                    if (q, psi) in fsm.transitions and fsm.outputs[(q, psi)] == omega
                }
            )
            transitions[(node, pair)] = successor
            if successor not in nodes:
                nodes.add(successor)
                queue.append(successor)
    return ObserverFsm(root=root, nodes=frozenset(nodes), transitions=transitions)


def check_current_state_observability(obs: ObserverFsm) -> ObservabilityResult:
    """Least k with all nodes at depth >= k singletons, or not-observable.

    A non-singleton node that lies on a cycle, or is reachable from one, can
    be reached by arbitrarily long pair sequences, so no finite k exists.
    Otherwise k is one more than the longest root path ending in a
    non-singleton node (zero when the root itself is a singleton).
    """
    succ: dict[Node, list[Node]] = {n: [] for n in obs.nodes}
    indeg: dict[Node, int] = {n: 0 for n in obs.nodes}
    for (node, _pair), target in obs.transitions.items():
        succ[node].append(target)
        indeg[target] += 1
    # peel indegree-zero nodes; whatever survives sits on or after a cycle
    queue = deque(n for n, d in indeg.items() if d == 0)
    acyclic: list[Node] = []
    remaining = dict(indeg)
    while queue:
        node = queue.popleft()
        acyclic.append(node)
        for target in succ[node]:
            remaining[target] -= 1
            if remaining[target] == 0:
                queue.append(target)
    late = {n for n in obs.nodes if remaining[n] > 0}
    bad = frozenset(n for n in late if len(n) > 1)
    if bad:
        return ObservabilityResult(observable=False, k=None, witness=bad)
    # longest path from the root to each node, over the acyclic prefix
    depth: dict[Node, int] = {obs.root: 0}
    for node in acyclic:  # acyclic is in topological order
        if node not in depth:
            continue
        for target in succ[node]:
            if target in late:
                continue
            depth[target] = max(depth.get(target, -1), depth[node] + 1)
    worst = max(
        (d for node, d in depth.items() if len(node) > 1),
        default=-1,
    )
    return ObservabilityResult(observable=True, k=worst + 1, witness=frozenset())


def step_discrete(obs: ObserverFsm, node: Node, pair: EventPair) -> Node:
    """Successor node for an observed event pair."""
    try:
        return obs.transitions[(node, pair)]
    except KeyError:
        raise DiscreteInconsistencyError(node, pair) from None
