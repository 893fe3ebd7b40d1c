import pytest

import oracles
from ruleproofs.datagen import GenConfig, generate_theory
from ruleproofs.proofgraph import ProofGraph, proof_depth
from ruleproofs.reasoner import (
    NonStratifiedTheory,
    answer_question,
    check_proof,
    closure,
    critical_sentences,
    prove,
)
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule


def theory_of(facts, rules, questions=()):
    return Theory(
        "t",
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(facts)),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(rules)),
        tuple(make_question(f"Q{i + 1}", lit) for i, lit in enumerate(questions)),
    )


def random_theories(count, max_depth=3, seeds=(0, 1, 2), profiles=("people", "animals")):
    out = []
    per = count // (len(seeds) * len(profiles)) + 1
    for profile in profiles:
        for seed in seeds:
            cfg = GenConfig(seed=seed, num_theories=per, max_depth=max_depth,
                            facts_per_theory=(2, 6), rules_per_theory=(2, 6),
                            questions_per_theory=max_depth + 2, profile=profile)
            out.extend(generate_theory(cfg, i) for i in range(per))
    return out[:count]


class TestClosure:
    def test_single_rule_application(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
        )
        c = closure(t)
        assert ("alan", "blue", None) in c.derived
        assert ("alan", "young", None) in c.derived

    def test_no_rules_fixpoint_is_facts(self):
        t = theory_of([Literal("alan", "blue"), Literal("bob", "kind", None, False)], [])
        c = closure(t)
        assert c.derived == frozenset({("alan", "blue", None)})

    def test_negation_as_failure_fires(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("alan", "cold", None, False)], Literal("alan", "young"))],
        )
        assert ("alan", "young", None) in closure(t).derived

    def test_negation_blocked_by_derivable_atom(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "cold")),
             ([Literal("alan", "cold", None, False)], Literal("alan", "young"))],
        )
        assert ("alan", "young", None) not in closure(t).derived

    def test_negation_chain_is_stratified(self):
        # not A -> B, then not B -> C: B holds, so C must not.
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("alan", "proud", None, False)], Literal("alan", "happy")),
             ([Literal("alan", "happy", None, False)], Literal("alan", "quiet"))],
        )
        c = closure(t)
        assert ("alan", "happy", None) in c.derived
        assert ("alan", "quiet", None) not in c.derived

    def test_cycle_through_negation_rejected(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("alan", "happy", None, False)], Literal("alan", "quiet")),
             ([Literal("alan", "quiet")], Literal("alan", "happy"))],
        )
        with pytest.raises(NonStratifiedTheory):
            closure(t)

    def test_positive_cycle_allowed(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young")),
             ([Literal("someone", "young")], Literal("someone", "blue"))],
        )
        c = closure(t)
        assert ("alan", "young", None) in c.derived

    def test_derivation_index_covers_derived_non_facts(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
        )
        c = closure(t)
        assert ("alan", "young", None) in c.derivation_index

    def test_derivation_index_complete_on_generated_theories(self):
        for t in random_theories(30):
            c = closure(t)
            fact_atoms = {f.literal.atom() for f in t.facts if f.literal.positive}
            for atom in c.derived:
                if atom not in fact_atoms:
                    assert c.derivation_index.get(atom), (t.id, atom)


class TestAnswer:
    def test_lookup(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "blue")])
        assert answer_question(t, t.questions[0]) is True

    def test_derived(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        assert answer_question(t, t.questions[0]) is True

    def test_closed_world_false(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "smart")])
        assert answer_question(t, t.questions[0]) is False

    def test_negative_question_by_failure(self):
        t = theory_of([Literal("alan", "blue")], [],
                      [Literal("alan", "smart", None, False)])
        assert answer_question(t, t.questions[0]) is True

    def test_negative_question_with_derivable_counterpart(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "young", None, False)],
        )
        assert answer_question(t, t.questions[0]) is False


class TestProve:
    def test_fact_feeding_rule(self):
        # ids arranged so the proof is exactly F2 -> R4
        t = theory_of(
            [Literal("bob", "rough"), Literal("alan", "blue")],
            [([Literal("someone", "rough")], Literal("someone", "cold")),
             ([Literal("someone", "green")], Literal("someone", "kind")),
             ([Literal("someone", "cold")], Literal("someone", "quiet")),
             ([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        proofs = prove(t, t.questions[0])
        assert proofs == [ProofGraph.of(["F2", "R4"], [("F2", "R4")])]
        assert proof_depth(proofs[0]) == 1

    def test_lookup_proof_is_single_fact(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "blue")])
        assert prove(t, t.questions[0]) == [ProofGraph.of(["F1"])]

    def test_two_independent_derivations(self):
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "rough")],
            [([Literal("someone", "blue")], Literal("someone", "young")),
             ([Literal("someone", "rough")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        proofs = prove(t, t.questions[0])
        assert len(proofs) == 2
        assert ProofGraph.of(["F1", "R1"], [("F1", "R1")]) in proofs
        assert ProofGraph.of(["F2", "R2"], [("F2", "R2")]) in proofs

    def test_proofs_are_minimal(self):
        # a fact and a one-step derivation of the same atom
        t = theory_of(
            [Literal("alan", "young"), Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        proofs = prove(t, t.questions[0])
        assert ProofGraph.of(["F1"]) in proofs
        assert ProofGraph.of(["F2", "R1"], [("F2", "R1")]) in proofs

    def test_negative_fact_lookup(self):
        t = theory_of([Literal("alan", "kind", None, False)], [],
                      [Literal("alan", "kind", None, False)])
        assert prove(t, t.questions[0]) == [ProofGraph.of(["F1"])]

    def test_negative_question_proved_by_counterpart_derivation(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "young", None, False)],
        )
        assert prove(t, t.questions[0]) == [
            ProofGraph.of(["F1", "R1"], [("F1", "R1")])]

    def test_bare_naf_when_nothing_concludes(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "smart")])
        assert prove(t, t.questions[0]) == [ProofGraph.of(["NAF"])]

    def test_failed_proof_shows_shallowest_rule(self):
        # R1 fails one level up the chain; R2 fails immediately, so R2 is shown
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "green")], Literal("someone", "young")),
             ([Literal("someone", "cold")], Literal("someone", "young")),
             ([Literal("someone", "quiet")], Literal("someone", "green"))],
            [Literal("alan", "young")],
        )
        # depth of failure: R1 via green (concluded by R3, depth 2), R2 via cold (depth 1)
        proofs = prove(t, t.questions[0])
        assert proofs == [ProofGraph.of(["R2", "NAF"], [("NAF", "R2")])]

    def test_failed_proof_keeps_satisfiable_branch(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("alan", "blue"), Literal("alan", "green")], Literal("alan", "young"))],
            [Literal("alan", "young")],
        )
        assert prove(t, t.questions[0]) == [
            ProofGraph.of(["F1", "R1", "NAF"], [("F1", "R1"), ("NAF", "R1")])]

    def test_derivation_from_failure_alone(self):
        # no facts at all: the rule fires because its negation holds
        t = theory_of(
            [],
            [([Literal("alan", "blue", None, False)], Literal("alan", "young"))],
            [Literal("alan", "young")],
        )
        assert answer_question(t, t.questions[0]) is True
        proofs = prove(t, t.questions[0])
        assert proofs == [ProofGraph.of(["R1", "NAF"], [("NAF", "R1")])]
        assert check_proof(t, t.questions[0], proofs[0])

    def test_negative_fact_supports_negative_antecedent(self):
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "cold", None, False)],
            [([Literal("someone", "blue"),
               Literal("someone", "cold", None, False)],
              Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        proofs = prove(t, t.questions[0])
        assert proofs == [ProofGraph.of(
            ["F1", "F2", "R1"], [("F1", "R1"), ("F2", "R1")])]
        assert check_proof(t, t.questions[0], proofs[0])

    def test_rule_rule_edges_in_both_directions(self):
        t = theory_of(
            [Literal("alan", "like", "bob")],
            [([Literal("someone", "like", "bob")], Literal("someone", "young")),
             ([Literal("alan", "young")], Literal("carol", "like", "bob"))],
            [Literal("carol", "young")],
        )
        proofs = prove(t, t.questions[0])
        assert proofs == [ProofGraph.of(
            ["F1", "R1", "R2"],
            [("F1", "R1"), ("R1", "R2"), ("R2", "R1")])]
        assert proof_depth(proofs[0]) == 2

    def test_max_proofs_must_be_positive(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "blue")])
        with pytest.raises(ValueError):
            prove(t, t.questions[0], max_proofs=0)

    def test_max_proofs_truncates(self):
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "rough")],
            [([Literal("someone", "blue")], Literal("someone", "young")),
             ([Literal("someone", "rough")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        assert len(prove(t, t.questions[0], max_proofs=1)) == 1


class TestProofDepth:
    def test_single_fact(self):
        assert proof_depth(ProofGraph.of(["F1"])) == 0

    def test_single_naf(self):
        assert proof_depth(ProofGraph.of(["NAF"])) == 0

    def test_chain_of_three_rules(self):
        p = ProofGraph.of(
            ["F1", "R1", "R2", "R3"],
            [("F1", "R1"), ("R1", "R2"), ("R2", "R3")],
        )
        assert proof_depth(p) == 3
        assert oracles.exhaustive_depth(p) == 3

    def test_matches_exhaustive_oracle_on_generated_proofs(self):
        for t in random_theories(40):
            for q in t.questions:
                for p in q.gold_proofs:
                    assert proof_depth(p) == oracles.exhaustive_depth(p)


class TestCriticalSentences:
    def test_lookup_fact_is_critical(self):
        t = theory_of([Literal("alan", "blue")], [], [Literal("alan", "blue")])
        assert critical_sentences(t)[0] == {"F1"}

    def test_only_shared_rule_is_critical(self):
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "rough")],
            [([Literal("someone", "blue")], Literal("someone", "cold")),
             ([Literal("someone", "rough")], Literal("someone", "cold")),
             ([Literal("someone", "cold")], Literal("someone", "young"))],
            [Literal("alan", "young")],
        )
        assert critical_sentences(t)[0] == {"R3"}

    def test_false_with_no_concluding_rule_has_no_critical(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young"))],
            [Literal("alan", "smart")],
        )
        assert critical_sentences(t)[0] == set()


class TestOracleAgreement:
    def test_handmade_negation_programs_match_oracle(self):
        a, b, c, d, e = (Literal("alan", p) for p in
                         ("blue", "rough", "young", "kind", "smart"))
        programs = [
            # negation feeding negation
            ([a], [([b.negated()], c), ([c.negated()], d)]),
            # negation on an atom derived through a positive chain
            ([a], [([a], b), ([b], c), ([c.negated()], d), ([d.negated()], e)]),
            # rule blocked by its own support chain elsewhere
            ([a, b], [([a], c), ([c.negated(), b], d)]),
            # negative antecedent beside a positive one
            ([a], [([a, d.negated()], b), ([b], c)]),
            # two rules for the same head, one blocked
            ([a, b], [([a], c), ([c.negated()], e), ([b, e.negated()], d)]),
        ]
        for facts, rules in programs:
            t = theory_of(facts, rules)
            derived = closure(t).derived
            assert derived == oracles.naive_closure(t), (facts, rules)

    def test_answers_match_alternating_fixpoint(self):
        theories = random_theories(150)
        checked = 0
        for t in theories:
            for q in t.questions:
                assert answer_question(t, q) == oracles.naive_answer(t, q.literal), \
                    (t.id, q.id, q.text)
                checked += 1
        assert checked >= 600

    def test_every_emitted_proof_verifies(self):
        for t in random_theories(100):
            for q in t.questions:
                for p in q.gold_proofs:
                    assert check_proof(t, q, p), (t.id, q.id, p)

    def test_positive_fragment_monotone(self):
        cfg = GenConfig(seed=5, num_theories=30, max_depth=2, negation_rate=0.0,
                        facts_per_theory=(2, 5), rules_per_theory=(2, 5),
                        questions_per_theory=4)
        for i in range(30):
            t = generate_theory(cfg, i)
            before = closure(t).derived
            extra = make_fact(f"F{len(t.facts) + 1}", Literal("alan", "proud"))
            grown = Theory(t.id, t.facts + (extra,), t.rules, t.questions)
            assert closure(grown).derived >= before
