import pytest
from hypothesis import given, settings, strategies as st

from ruleproofs.proofgraph import (
    NAF,
    ProofGraph,
    match_proofs,
    node_kind,
    node_sort_key,
    to_dot,
    validate_structure,
)
from ruleproofs.reasoner import check_proof
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule


class TestNodeKinds:
    def test_kinds(self):
        assert node_kind("F3") == "fact"
        assert node_kind("R12") == "rule"
        assert node_kind("NAF") == "naf"

    def test_malformed(self):
        for bad in ("X1", "F", "R-1", "naf", "F1a", "F0", "F01", "F\u00b2"):
            with pytest.raises(ValueError):
                node_kind(bad)

    def test_malformed_raises_again_through_the_cache(self):
        for bad in ("F0", "F01", "Fx", "R"):
            for _ in range(2):
                with pytest.raises(ValueError):
                    node_kind(bad)
                with pytest.raises(ValueError):
                    node_sort_key(bad)

    def test_id_caches_are_bounded(self):
        assert node_kind.cache_info().maxsize is not None
        assert node_sort_key.cache_info().maxsize is not None

    def test_canonical_order(self):
        nodes = ["NAF", "R2", "F10", "R1", "F2"]
        assert sorted(nodes, key=node_sort_key) == ["F2", "F10", "R1", "R2", "NAF"]


class TestValidateStructure:
    def test_bidirectional_rule_pair_is_valid(self):
        p = ProofGraph.of(["F1", "R4", "R5"],
                          [("F1", "R4"), ("R4", "R5"), ("R5", "R4")])
        assert validate_structure(p) == []

    def test_self_loop_rejected(self):
        p = ProofGraph.of(["R1"], [("R1", "R1")])
        assert any("self-loop" in v for v in validate_structure(p))

    def test_fact_to_fact_rejected(self):
        p = ProofGraph.of(["F1", "F2"], [("F1", "F2")])
        assert any("must point into a rule" in v for v in validate_structure(p))

    def test_rule_to_fact_rejected(self):
        p = ProofGraph.of(["F1", "R1"], [("F1", "R1"), ("R1", "F1")])
        assert any("must point into a rule" in v for v in validate_structure(p))

    def test_edge_into_naf_rejected(self):
        p = ProofGraph.of(["R1", "NAF"], [("R1", "NAF")])
        assert validate_structure(p)

    def test_three_incoming_edges_accepted(self):
        p = ProofGraph.of(
            ["F1", "R1", "R3", "R4", "R6"],
            [("F1", "R1"), ("F1", "R3"), ("F1", "R4"),
             ("R1", "R6"), ("R3", "R6"), ("R4", "R6")],
        )
        assert validate_structure(p) == []
        assert sum(1 for _, d in p.edges if d == "R6") == 3

    def test_disconnected_rejected(self):
        p = ProofGraph.of(["F1", "F2", "R1"], [("F1", "R1")])
        assert any("not connected" in v for v in validate_structure(p))

    def test_singletons_are_connected(self):
        assert validate_structure(ProofGraph.of(["NAF"])) == []
        assert validate_structure(ProofGraph.of(["F1"])) == []

    def test_empty_graph_rejected(self):
        assert validate_structure(ProofGraph.of([])) == ["graph has no nodes"]

    def test_malformed_id_is_a_violation(self):
        for bad in ("F\u00b2", "F01"):
            p = ProofGraph.of([bad, "R1"], [(bad, "R1")])
            assert validate_structure(p) == [f"malformed node id {bad!r}"]

    def test_edge_outside_nodes_rejected(self):
        p = ProofGraph(frozenset(["F1"]), frozenset([("F1", "R9")]))
        assert any("outside" in v for v in validate_structure(p))


class TestMatchProofs:
    def test_identical(self):
        p = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        assert match_proofs(p, [p]) == (True, True, True)

    def test_listing_order_is_irrelevant(self):
        a = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")])
        b = ProofGraph.of(["R2", "F1", "R1"], [("R1", "R2"), ("F1", "R1")])
        assert match_proofs(a, [b]) == (True, True, True)

    def test_flipped_edge_direction(self):
        pred = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R2", "R1")])
        gold = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")])
        na, ea, pa = match_proofs(pred, [gold])
        assert na is True and ea is False and pa is False

    def test_per_metric_credit_may_split_across_golds(self):
        gold1 = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        gold2 = ProofGraph.of(["F2", "R1"], [("F1", "R1")])  # same edges, other nodes
        pred = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        assert match_proofs(pred, [gold1]) == (True, True, True)
        mixed = ProofGraph.of(["F2", "R1"], [("F1", "R1")])
        na, ea, pa = match_proofs(mixed, [gold1])
        assert (na, ea, pa) == (False, True, False)
        na, ea, pa = match_proofs(mixed, [gold1, gold2])
        assert (na, ea, pa) == (True, True, True)

    def test_any_gold_credit(self):
        pred = ProofGraph.of(["F2", "R2"], [("F2", "R2")])
        golds = [ProofGraph.of(["F1", "R1"], [("F1", "R1")]), pred]
        assert match_proofs(pred, golds) == (True, True, True)

    def test_monotone_in_golds(self):
        pred = ProofGraph.of(["F1"])
        golds = [ProofGraph.of(["F1"])]
        before = match_proofs(pred, golds)
        after = match_proofs(pred, golds + [ProofGraph.of(["F2"])])
        assert all(b <= a for b, a in zip(before, after)) and before == after

    def test_empty_golds_is_an_error(self):
        with pytest.raises(ValueError):
            match_proofs(ProofGraph.of(["F1"]), [])


NODE_IDS = st.lists(
    st.sampled_from(["F1", "F2", "F3", "R1", "R2", "R3", NAF]),
    min_size=1, max_size=5, unique=True,
)


@st.composite
def valid_graphs(draw):
    nodes = draw(NODE_IDS)
    rules = [n for n in nodes if node_kind(n) == "rule"]
    edges = set()
    if rules:
        for n in nodes:
            for r in rules:
                if n != r and draw(st.booleans()):
                    edges.add((n, r))
    return ProofGraph.of(nodes, edges)


class TestProperties:
    @given(valid_graphs())
    @settings(max_examples=150)
    def test_self_match_is_all_true(self, p):
        assert match_proofs(p, [p]) == (True, True, True)

    @given(valid_graphs())
    @settings(max_examples=150)
    def test_json_round_trip(self, p):
        assert ProofGraph.from_dict(p.to_dict()) == p


class TestVerifyDerivation:
    def _theory(self):
        return Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),
             make_fact("F2", Literal("alan", "cold"))),
            (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),
             make_rule("R2", [Literal("someone", "blue"),
                              Literal("someone", "cold", positive=False)],
                       Literal("someone", "young"))),
            (make_question("Q1", Literal("alan", "young")),),
        )

    def test_valid_derivation(self):
        t = self._theory()
        p = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        assert check_proof(t, t.questions[0], p) is True

    def test_naf_edge_for_derivable_atom_rejected(self):
        t = self._theory()
        p = ProofGraph.of(["F1", "R2", "NAF"], [("F1", "R2"), ("NAF", "R2")])
        assert check_proof(t, t.questions[0], p) is False

    def test_unsupported_antecedent_rejected(self):
        t = self._theory()
        p = ProofGraph.of(["F2", "R1"], [("F2", "R1")])
        assert check_proof(t, t.questions[0], p) is False

    def test_junk_edge_rejected(self):
        t = self._theory()
        p = ProofGraph.of(["F1", "F2", "R1"], [("F1", "R1"), ("F2", "R1")])
        assert check_proof(t, t.questions[0], p) is False

    def test_wrong_conclusion_rejected(self):
        t = self._theory()
        p = ProofGraph.of(["F1"])
        assert check_proof(t, t.questions[0], p) is False

    def test_unknown_node_raises(self):
        t = self._theory()
        with pytest.raises(KeyError):
            check_proof(t, t.questions[0], ProofGraph.of(["F9"]))

    def test_structurally_invalid_is_false(self):
        t = self._theory()
        p = ProofGraph.of(["F1", "F2"], [("F1", "F2")])
        assert check_proof(t, t.questions[0], p) is False


class TestCorruptedProofsAreRejected:
    def _pairs(self):
        from ruleproofs.datagen import GenConfig, generate_theory
        cfg = GenConfig(seed=31, num_theories=12, max_depth=3)
        for i in range(12):
            t = generate_theory(cfg, i)
            for q in t.questions:
                yield t, q, q.gold_proofs[0]

    def test_edge_removal_always_detected(self):
        checked = 0
        for t, q, gold in self._pairs():
            for edge in gold.canonical_edges():
                mutated = ProofGraph(gold.nodes, gold.edges - {edge})
                if validate_structure(mutated):
                    checked += 1
                    continue
                assert check_proof(t, q, mutated) is False, (t.id, q.id, edge)
                checked += 1
        assert checked > 50

    def test_node_removal_always_detected(self):
        checked = 0
        for t, q, gold in self._pairs():
            if len(gold.nodes) < 2:
                continue
            for node in gold.canonical_nodes():
                kept = gold.nodes - {node}
                edges = {(s, d) for s, d in gold.edges if s != node and d != node}
                mutated = ProofGraph(frozenset(kept), frozenset(edges))
                if validate_structure(mutated):
                    checked += 1
                    continue
                assert check_proof(t, q, mutated) is False, (t.id, q.id, node)
                checked += 1
        assert checked > 50

    def test_edge_flip_never_crashes_and_rarely_passes(self):
        flipped_accepted = 0
        total = 0
        for t, q, gold in self._pairs():
            for s, d in gold.canonical_edges():
                mutated = ProofGraph(gold.nodes, (gold.edges - {(s, d)}) | {(d, s)})
                if mutated.edges == gold.edges:
                    continue
                total += 1
                if not validate_structure(mutated):
                    flipped_accepted += int(check_proof(t, q, mutated))
        assert total > 50
        assert flipped_accepted == 0

    def test_foreign_fact_swap_detected(self):
        for t, q, gold in self._pairs():
            fact_nodes = [n for n in gold.canonical_nodes() if n.startswith("F")]
            spare = [f.id for f in t.facts if f.id not in gold.nodes]
            if not fact_nodes or not spare:
                continue
            old, new = fact_nodes[0], spare[0]
            nodes = (gold.nodes - {old}) | {new}
            edges = {(new if s == old else s, d) for s, d in gold.edges}
            mutated = ProofGraph(frozenset(nodes), frozenset(edges))
            if not validate_structure(mutated):
                assert check_proof(t, q, mutated) is False


class TestDotExport:
    def test_contains_nodes_and_edges(self):
        p = ProofGraph.of(["F1", "R1", "NAF"], [("F1", "R1"), ("NAF", "R1")])
        dot = to_dot(p, title="demo")
        assert dot.startswith('digraph "demo"')
        assert '"F1" [shape=box];' in dot
        assert '"NAF" [shape=diamond];' in dot
        assert '"F1" -> "R1";' in dot
        assert dot == to_dot(p, title="demo")
