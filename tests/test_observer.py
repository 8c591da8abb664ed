"""Subset-construction observer and current-state observability."""

import pytest

from hybridmon import (
    DiscreteInconsistencyError,
    Fsm,
    build_observer,
    check_current_state_observability,
    extract_fsm,
    step_discrete,
)


@pytest.fixture(scope="module")
def tg_observer(tg_model):
    return build_observer(extract_fsm(tg_model))


class TestBuildObserver:
    def test_train_gate_nodes(self, tg_observer):
        assert tg_observer.root == (1, 2, 3)
        assert tg_observer.nodes == frozenset({(1, 2, 3), (1,), (2,), (3,)})

    def test_train_gate_transitions(self, tg_observer):
        # hand enumeration: every pair resolves the mode set to a singleton,
        # then the singletons chase each other around the ring
        assert tg_observer.transitions == {
            ((1, 2, 3), ("c_down", "s_1")): (2,),
            ((1, 2, 3), ("c_up", "s_2")): (3,),
            ((1, 2, 3), ("c_next", "s_3")): (1,),
            ((1,), ("c_down", "s_1")): (2,),
            ((2,), ("c_up", "s_2")): (3,),
            ((3,), ("c_next", "s_3")): (1,),
        }

    def test_nodes_are_sorted_tuples(self):
        fsm = Fsm(
            states=("b", "a"),
            transitions={("a", "go"): "b", ("b", "go"): "a"},
            outputs={("a", "go"): "x", ("b", "go"): "y"},
        )
        obs = build_observer(fsm)
        assert obs.root == ("a", "b")


class TestObservability:
    def test_train_gate_k_is_one(self, tg_observer):
        result = check_current_state_observability(tg_observer)
        assert result.observable
        assert result.k == 1
        assert result.witness == frozenset()

    def test_single_state_k_is_zero(self):
        obs = build_observer(Fsm(states=("s",), transitions={}, outputs={}))
        result = check_current_state_observability(obs)
        assert result.observable and result.k == 0

    def test_indistinguishable_pair_not_observable(self):
        # both modes answer "go" with the same output, forever
        fsm = Fsm(
            states=("a", "b"),
            transitions={("a", "go"): "a", ("b", "go"): "b"},
            outputs={("a", "go"): "went", ("b", "go"): "went"},
        )
        result = check_current_state_observability(build_observer(fsm))
        assert not result.observable
        assert result.k is None
        assert result.witness == frozenset({("a", "b")})

    def test_outputs_split_ambiguity_immediately(self):
        fsm = Fsm(
            states=("a", "b", "c", "d"),
            transitions={("a", "go"): "c", ("b", "go"): "d"},
            outputs={("a", "go"): "left", ("b", "go"): "right"},
        )
        obs = build_observer(fsm)
        assert obs.nodes == frozenset({("a", "b", "c", "d"), ("c",), ("d",)})
        result = check_current_state_observability(obs)
        assert result.observable and result.k == 1

    def test_two_pairs_needed(self):
        # the first pair leaves {c, d}; their outputs on "nxt" differ
        fsm = Fsm(
            states=("a", "b", "c", "d", "e"),
            transitions={
                ("a", "go"): "c",
                ("b", "go"): "d",
                ("c", "nxt"): "e",
                ("d", "nxt"): "e",
            },
            outputs={
                ("a", "go"): "x",
                ("b", "go"): "x",
                ("c", "nxt"): "y",
                ("d", "nxt"): "z",
            },
        )
        obs = build_observer(fsm)
        assert ("c", "d") in obs.nodes
        result = check_current_state_observability(obs)
        assert result.observable and result.k == 2


class TestStepDiscrete:
    def test_known_pair_advances(self, tg_observer):
        assert step_discrete(tg_observer, (1, 2, 3), ("c_down", "s_1")) == (2,)
        assert step_discrete(tg_observer, (2,), ("c_up", "s_2")) == (3,)

    def test_impossible_pair_raises(self, tg_observer):
        with pytest.raises(DiscreteInconsistencyError) as err:
            step_discrete(tg_observer, (2,), ("c_down", "s_1"))
        assert err.value.node == (2,)
        assert err.value.pair == ("c_down", "s_1")
