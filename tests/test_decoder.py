import numpy as np
import pytest

import oracles
from ruleproofs.datagen import GenConfig, generate_theory
from ruleproofs.decoder import (
    ConnectivityInfeasible,
    allowed_pairs,
    decode_proof,
    decode_unconstrained,
    decode_with_fallback,
    flow_certificate,
    select_nodes,
    verify_flow,
)
from ruleproofs.potentials import Potentials, adversarial_potentials, oracle_potentials
from ruleproofs.proofgraph import ProofGraph, is_connected


def zeros(size):
    return [[0.0] * size for _ in range(size)]


def example_two():
    # nodes F1, R1, R2 selected; NAF off
    edge_prob = zeros(4)
    edge_prob[0][1] = 0.9   # F1 -> R1
    edge_prob[1][2] = 0.9   # R1 -> R2
    edge_prob[0][2] = 0.4   # F1 -> R2
    edge_prob[2][1] = 0.1   # R2 -> R1
    return Potentials([0.9, 0.9, 0.9, 0.1], edge_prob, 1)


def example_three():
    edge_prob = zeros(4)
    edge_prob[0][1] = 0.9
    edge_prob[0][2] = 0.2
    edge_prob[1][2] = 0.15
    edge_prob[2][1] = 0.1
    return Potentials([0.9, 0.9, 0.9, 0.1], edge_prob, 1)


def random_instance(rng, max_rules=3):
    num_facts = int(rng.integers(1, 5))
    num_rules = int(rng.integers(1, max_rules + 1))
    size = num_facts + num_rules + 1
    node_prob = rng.random(size)
    if not (node_prob >= 0.5).any():
        node_prob[int(rng.integers(size))] = 0.9
    return Potentials(node_prob.tolist(), rng.random((size, size)).tolist(), num_facts)


class TestSelectNodes:
    def test_all_above_threshold(self):
        assert select_nodes([0.9, 0.9, 0.9]) == [0, 1, 2]

    def test_exactly_half_is_selected(self):
        assert select_nodes([0.5, 0.2]) == [0]

    def test_empty_falls_back_to_argmax(self):
        assert select_nodes([0.1, 0.3, 0.2]) == [1]

    def test_argmax_tie_takes_lowest_index(self):
        assert select_nodes([0.1, 0.3, 0.3]) == [1]


class TestAllowedPairs:
    def test_selected_pairs_into_rules(self):
        # example_two selects F1, R1, R2 (indices 0-2) with one fact and NAF at 3
        assert allowed_pairs([0, 1, 2], 1, 4) == [(0, 1), (2, 1), (0, 2), (1, 2)]


class TestDecodeProof:
    def test_single_node_is_a_valid_singleton(self):
        p = Potentials([0.9, 0.1, 0.1], zeros(3), 1)
        result = decode_proof(p)
        assert result.proof == ProofGraph.of(["F1"])
        assert result.objective == 0.0
        assert not result.connectivity_relaxed
        flow = flow_certificate(result.proof)
        assert verify_flow(result.proof, flow)

    def test_connected_unconstrained_optimum(self):
        result = decode_proof(example_two())
        assert result.proof == ProofGraph.of(
            ["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")])
        assert result.objective == pytest.approx(3.3, abs=1e-12)

    def test_repair_adds_cheapest_bridge(self):
        result = decode_proof(example_three())
        assert result.proof == ProofGraph.of(
            ["F1", "R1", "R2"], [("F1", "R1"), ("F1", "R2")])
        assert result.objective == pytest.approx(2.85, abs=1e-12)
        assert result.stats.repair_edges_added == 1

    def test_no_connectivity_keeps_disconnected_optimum(self):
        result = decode_proof(example_three(), connectivity=False)
        assert result.proof.edges == frozenset([("F1", "R1")])
        assert result.connectivity_relaxed is True

    def test_two_selected_facts_are_infeasible(self):
        p = Potentials([0.9, 0.9, 0.1], zeros(3), 2)
        with pytest.raises(ConnectivityInfeasible):
            decode_proof(p)
        fallback = decode_with_fallback(p)
        assert fallback.connectivity_relaxed is True
        assert fallback.proof.nodes == frozenset(["F1", "F2"])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_instance(rng)
            a = decode_with_fallback(p)
            b = decode_with_fallback(p)
            assert (a.proof, a.objective, a.connectivity_relaxed) == \
                (b.proof, b.objective, b.connectivity_relaxed)

    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(17)
        infeasible = 0
        for _ in range(150):
            p = random_instance(rng)
            oracle = oracles.brute_force_decode(p.node_prob, p.edge_prob, p.num_facts)
            try:
                result = decode_proof(p)
            except ConnectivityInfeasible:
                infeasible += 1
                assert oracle is None
                continue
            assert oracle is not None
            objective, chosen = oracle
            assert result.objective == pytest.approx(objective, abs=1e-9)
            got = {(s, d) for s, d in result.proof.edges}
            size = p.size
            want = {
                (p_id(m, p.num_facts, size), p_id(n, p.num_facts, size))
                for m, n in chosen
            }
            assert got == want
        assert infeasible < 150

    def test_exact_under_near_threshold_ties(self):
        # probabilities clustered around 0.5 force heavy tie-breaking in
        # the repair step; the oracle applies the same declared order
        grid = np.array([0.2, 0.45, 0.49, 0.5, 0.51, 0.55, 0.8])
        rng = np.random.default_rng(41)
        infeasible = 0
        for _ in range(200):
            num_facts = int(rng.integers(1, 4))
            num_rules = int(rng.integers(1, 4))
            size = num_facts + num_rules + 1
            node_prob = rng.choice(np.array([0.1, 0.5, 0.9]), size=size)
            if not (node_prob >= 0.5).any():
                node_prob[0] = 0.9
            edge_prob = rng.choice(grid, size=(size, size))
            p = Potentials(node_prob.tolist(), edge_prob.tolist(), num_facts)
            oracle = oracles.brute_force_decode(p.node_prob, p.edge_prob, p.num_facts)
            try:
                result = decode_proof(p)
            except ConnectivityInfeasible:
                infeasible += 1
                assert oracle is None
                continue
            objective, chosen = oracle
            assert result.objective == pytest.approx(objective, abs=1e-9)
            want = {
                (p_id(m, num_facts, size), p_id(n, num_facts, size))
                for m, n in chosen
            }
            assert set(result.proof.edges) == want
        assert infeasible < 200

    def test_connected_whenever_not_relaxed(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_instance(rng)
            try:
                result = decode_proof(p)
            except ConnectivityInfeasible:
                continue
            assert is_connected(result.proof.nodes, result.proof.edges)
            flow = flow_certificate(result.proof)
            assert flow is not None and verify_flow(result.proof, flow)


def p_id(index, num_facts, size):
    if index == size - 1:
        return "NAF"
    return f"F{index + 1}" if index < num_facts else f"R{index - num_facts + 1}"


class TestDecodeUnconstrained:
    def test_fact_to_fact_edge_emitted(self):
        p = Potentials([0.9, 0.9, 0.1], zeros(3), 2)
        p.edge_prob[0][1] = 0.9
        result = decode_unconstrained(p)
        assert ("F1", "F2") in result.proof.edges
        assert result.connectivity_relaxed is True

    def test_all_below_threshold_is_empty(self):
        p = Potentials([0.9, 0.9, 0.1], [[0.4] * 3 for _ in range(3)], 1)
        assert decode_unconstrained(p).proof.edges == frozenset()

    def test_matches_constrained_when_constraints_inactive(self):
        constrained = decode_proof(example_two())
        unconstrained = decode_unconstrained(example_two())
        assert unconstrained.proof.nodes == constrained.proof.nodes
        assert unconstrained.proof.edges == constrained.proof.edges


class TestFlowCertificate:
    def test_flow_value_equals_node_count(self):
        p = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")])
        flow = flow_certificate(p)
        assert flow[("source", "F1")] == 3.0
        assert sum(v for (m, n), v in flow.items() if n == "sink") == 3.0
        assert verify_flow(p, flow)

    def test_disconnected_has_no_certificate(self):
        p = ProofGraph.of(["F1", "F2", "R1"], [("F1", "R1")])
        assert flow_certificate(p) is None

    def test_tampered_flow_fails(self):
        p = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        flow = flow_certificate(p)
        flow[("F1", "R1")] += 1.0
        assert not verify_flow(p, flow)

    def test_missing_flow_fails(self):
        p = ProofGraph.of(["F1", "F2", "R1"], [("F1", "R1")])
        assert not verify_flow(p, flow_certificate(p))

    def test_flow_outside_capacity_fails(self):
        p = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2"), ("R2", "R1")])
        assert verify_flow(p, flow_certificate(p))
        for extra in (
            {("F1", "source"): 1.0},                   # source arc reversed
            {("sink", "R1"): 1.0},                     # sink arc reversed
            {("R1", "R1"): 1.0},                       # self-loop
            {("NAF", "R1"): 1.0, ("R1", "NAF"): 1.0},  # NAF is not in the proof
            {("R1", "R2"): 4.0, ("R2", "R1"): 3.0},    # above |N| = 3 on a balanced cycle
        ):
            flow = flow_certificate(p)
            flow.update(extra)
            assert not verify_flow(p, flow), extra

    def test_flow_off_chosen_edges_fails(self):
        p = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("F1", "R2")])
        # balanced at every node and within capacity, so only the coupling
        # rule rejects it: R1->R2 carries flow but is not an edge
        flow = {("source", "F1"): 3.0, ("F1", "sink"): 1.0,
                ("F1", "R1"): 2.0, ("R1", "sink"): 1.0,
                ("R1", "R2"): 1.0, ("R2", "sink"): 1.0}
        assert not verify_flow(p, flow)


class TestNoiseBehavior:
    def _proof_accuracy(self, pairs, noise):
        hits = 0
        for i, (t, q) in enumerate(pairs):
            pot = oracle_potentials(t, q.gold_proofs[0], noise, seed=[9, i])
            result = decode_with_fallback(pot)
            hits += int(result.proof == q.gold_proofs[0])
        return hits / len(pairs)

    def test_accuracy_monotone_in_noise(self):
        cfg = GenConfig(seed=2, num_theories=25, max_depth=3)
        pairs = [(t, q) for t in (generate_theory(cfg, i) for i in range(25))
                 for q in t.questions]
        accuracies = [self._proof_accuracy(pairs, eps) for eps in (0.0, 0.1, 0.2, 0.4)]
        assert accuracies[0] == 1.0
        assert all(a >= b for a, b in zip(accuracies, accuracies[1:]))
        assert accuracies[-1] < 1.0

    def test_adversarial_suite_separates_decoders(self):
        cfg = GenConfig(seed=6, num_theories=25, max_depth=3)
        pairs = [(t, q) for t in (generate_theory(cfg, i) for i in range(25))
                 for q in t.questions]
        disconnected = 0
        full_hits = 0
        ablated_hits = 0
        for t, q in pairs:
            pot = adversarial_potentials(t, q.gold_proofs[0])
            ablated = decode_proof(pot, connectivity=False)
            if not is_connected(ablated.proof.nodes, ablated.proof.edges):
                disconnected += 1
            full = decode_proof(pot)
            full_hits += int(full.proof == q.gold_proofs[0])
            ablated_hits += int(ablated.proof == q.gold_proofs[0])
        assert disconnected >= 1
        assert full_hits > ablated_hits
