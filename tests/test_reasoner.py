import gc
import itertools
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ruleproofs import proofgraph, reasoner
from ruleproofs.datagen import GenConfig, generate_theory
from ruleproofs.proofgraph import ProofGraph, proof_depth
from ruleproofs.reasoner import (
    GroundProgram,
    NonStratifiedTheory,
    answer_question,
    check_proof,
    closure,
    critical_sentences,
    prove,
    prove_literal,
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

    def test_negating_an_unconcluded_atom_keeps_one_stratum(self):
        # nothing concludes "cold": its flag is fixed by the facts before
        # any stratum runs, also when F1 is removed
        t = theory_of(
            [Literal("alan", "cold"), Literal("alan", "blue")],
            [([Literal("someone", "cold", None, False)], Literal("someone", "young"))],
        )
        c = closure(t)
        assert len(c.levels) == 1
        assert ("alan", "young", None) not in c.derived
        flags, _fired = c.derive("F1")
        assert flags[c.atom_ids[("alan", "young", None)]]

    def test_negating_a_concluded_atom_stratifies(self):
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "cold", None, False)], Literal("someone", "young")),
             ([Literal("someone", "blue")], Literal("someone", "cold"))],
        )
        c = closure(t)
        assert len(c.levels) == 2
        assert ("alan", "cold", None) in c.derived
        assert ("alan", "young", None) not in c.derived

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
        assert c.atom_ids[("alan", "young", None)] in c.derivation_index

    def test_derivation_index_complete_on_generated_theories(self):
        for t in random_theories(30):
            c = closure(t)
            fact_atoms = {f.literal.atom() for f in t.facts if f.literal.positive}
            for atom in c.derived:
                if atom not in fact_atoms:
                    assert c.derivation_index.get(c.atom_ids[atom]), (t.id, atom)


class TestClosureSlot:
    """``closure`` keeps the last program it compiled and returns it again
    for the same theory object."""

    @staticmethod
    def chain():
        return theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "blue")], Literal("someone", "young")),
             ([Literal("someone", "cold")], Literal("someone", "young"))],
            [Literal("alan", "young"), Literal("alan", "cold")],
        )

    def test_entry_points_share_one_program(self, monkeypatch):
        t = self.chain()
        program = closure(t)
        assert closure(t) is program
        grounded = []
        ground = reasoner.ground_instances
        monkeypatch.setattr(reasoner, "ground_instances", lambda t: grounded.append(t) or ground(t))
        for q in t.questions:
            assert answer_question(t, q) == program.holds(q.literal)
            assert all(check_proof(t, q, p) for p in prove(t, q))
        assert critical_sentences(t) == [{"F1", "R1"}, set()]
        assert closure(t) is program
        assert grounded == []

    def test_equal_theory_gets_its_own_program(self):
        t = self.chain()
        twin = replace(t)
        assert twin == t and twin is not t
        program = closure(t)
        assert closure(twin) is not program
        assert closure(twin).theory is twin
        assert closure(t) is not program  # the twin replaced it
        assert closure(t).theory is t

    def test_rejected_theory_leaves_the_slot(self):
        t = self.chain()
        program = closure(t)
        cycle = theory_of(
            [Literal("alan", "blue")],
            [([Literal("alan", "happy", None, False)], Literal("alan", "quiet")),
             ([Literal("alan", "quiet")], Literal("alan", "happy"))],
            [Literal("alan", "quiet")],
        )
        for _ in range(2):
            with pytest.raises(NonStratifiedTheory):
                closure(cycle)
            with pytest.raises(NonStratifiedTheory):
                answer_question(cycle, cycle.questions[0])
        assert closure(t) is program

    def test_at_most_one_program_is_held(self):
        first = weakref.ref(closure(self.chain()))
        assert first() is not None
        closure(self.chain())
        gc.collect()
        assert first() is None


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

    def test_derivation_holding_another_is_not_a_proof(self):
        # Bob is red through R1 from "Alan is kind", stated (F2) or derived
        # (R3 from F1); Bob is kind through R3 from that. Mixing the two
        # supports gives a derivation of "Bob is blue" that properly holds
        # each unmixed one.
        t = theory_of(
            [Literal("alan", "red"), Literal("alan", "kind")],
            [([Literal("alan", "kind")], Literal("bob", "red")),
             ([Literal("someone", "kind"), Literal("someone", "red")], Literal("someone", "blue")),
             ([Literal("someone", "red")], Literal("someone", "kind"))],
            [Literal("bob", "blue")],
        )
        proofs = prove(t, t.questions[0])
        assert proofs == [
            ProofGraph.of(["F1", "R1", "R2", "R3"],
                          [("F1", "R3"), ("R1", "R2"), ("R1", "R3"), ("R3", "R1"), ("R3", "R2")]),
            ProofGraph.of(["F2", "R1", "R2", "R3"],
                          [("F2", "R1"), ("R1", "R2"), ("R1", "R3"), ("R3", "R2")]),
        ]
        assert proofs == oracles.naive_proofs(t, t.questions[0].literal)

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

    def test_failing_negation_counts_as_depth_zero(self):
        # green fails through "not blue" (depth 1), kind through round, which
        # nothing concludes (depth 1): R1 and R2 tie, and R1 comes first
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "green")], Literal("someone", "young")),
             ([Literal("someone", "kind")], Literal("someone", "young")),
             ([Literal("someone", "blue", None, False)], Literal("someone", "green")),
             ([Literal("someone", "round")], Literal("someone", "kind"))],
            [Literal("alan", "young")],
        )
        assert prove(t, t.questions[0]) == [ProofGraph.of(["R1", "NAF"], [("NAF", "R1")])]

    def test_failure_depth_settles_chains_listed_backwards(self):
        # green fails at depth 2 through R3 <- R4, listed before the rule it
        # reads; kind fails at depth 3 through R5 -> R6 -> R7
        t = theory_of(
            [Literal("alan", "blue")],
            [([Literal("someone", "green")], Literal("someone", "young")),
             ([Literal("someone", "kind")], Literal("someone", "young")),
             ([Literal("someone", "cold")], Literal("someone", "green")),
             ([Literal("someone", "round")], Literal("someone", "cold")),
             ([Literal("someone", "quiet")], Literal("someone", "big")),
             ([Literal("someone", "big")], Literal("someone", "rough")),
             ([Literal("someone", "rough")], Literal("someone", "kind"))],
            [Literal("alan", "young")],
        )
        assert prove(t, t.questions[0]) == [ProofGraph.of(["R1", "NAF"], [("NAF", "R1")])]

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

    def test_capped_enumeration_matches_unmemoized_oracle(self):
        # six antecedents, each concluded from any of three facts: the goal
        # has 3**6 = 729 minimal proofs, more than the per-atom fragment cap,
        # so both sides keep the same capped, cut-in-grounding-order subset
        facts = [Literal("alan", attr) for attr in ("blue", "rough", "young")]
        middle = ("cold", "kind", "round", "quiet", "green", "red")
        rules = [([Literal("someone", fact.predicate)], Literal("someone", attr))
                 for attr in middle for fact in facts]
        rules.append(([Literal("someone", attr) for attr in middle], Literal("someone", "nice")))
        goal = Literal("alan", "nice")
        t = theory_of(facts, rules, [goal])
        assert len(t.facts) + len(t.rules) == 22
        program = closure(t)
        for max_proofs in (10, 1000):
            assert prove_literal(program, goal, max_proofs) == \
                oracles.naive_proofs(t, goal, max_proofs)
        negated = goal.negated()
        assert prove_literal(program, negated) == oracles.naive_proofs(t, negated, 10)

    def test_positive_cycle_proved_in_either_order(self):
        # cold and kind each follow from a fact and from each other
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "rough")],
            [([Literal("someone", "blue")], Literal("someone", "cold")),
             ([Literal("someone", "rough")], Literal("someone", "kind")),
             ([Literal("someone", "cold")], Literal("someone", "kind")),
             ([Literal("someone", "kind")], Literal("someone", "cold"))],
        )
        cold, kind = Literal("alan", "cold"), Literal("alan", "kind")
        expected = {
            cold: [ProofGraph.of(["F1", "R1"], [("F1", "R1")]),
                   ProofGraph.of(["F2", "R2", "R4"], [("F2", "R2"), ("R2", "R4")])],
            kind: [ProofGraph.of(["F1", "R1", "R3"], [("F1", "R1"), ("R1", "R3")]),
                   ProofGraph.of(["F2", "R2"], [("F2", "R2")])],
        }
        for order in ((cold, kind), (kind, cold)):
            program = GroundProgram(t)  # fresh per order; the second reads the first's entries
            for lit in order:
                assert prove_literal(program, lit) == expected[lit] == \
                    oracles.naive_proofs(t, lit, 10), (order, lit)

    def test_three_atom_cycle_proved_in_every_order(self):
        # cold -> kind -> round -> cold, each also from a fact of its own: a
        # sub-derivation's fragments depend on atoms two steps up its path
        ring = ("cold", "kind", "round")
        t = theory_of(
            [Literal("alan", "blue"), Literal("alan", "rough"), Literal("alan", "young")],
            [([Literal("someone", base)], Literal("someone", attr))
             for base, attr in zip(("blue", "rough", "young"), ring)]
            + [([Literal("someone", ring[k - 1])], Literal("someone", ring[k])) for k in range(3)],
        )
        for order in itertools.permutations([Literal("alan", attr) for attr in ring]):
            program = GroundProgram(t)  # every order starts from empty tables
            for lit in order:
                assert prove_literal(program, lit) == oracles.naive_proofs(t, lit, 10), order


    def test_long_chain_names_the_question_and_leaves_the_program_usable(self):
        # each link of the chain nests the fragment enumeration two frames
        # deeper, so 600 links pass Python's default limit of 1,000 frames
        words = ["".join(w) for w in itertools.product("xyz", repeat=6)][:601]
        t = theory_of([Literal("alan", words[0])],
                      [([Literal("alan", a)], Literal("alan", b)) for a, b in zip(words, words[1:])],
                      [Literal("alan", words[-1]), Literal("alan", words[100])])
        program = closure(t)
        with pytest.raises(reasoner.ProofSearchTooDeep, match=(
                "^theory 't', question Q1: proof search nests deeper than the recursion limit$")):
            prove(t, t.questions[0])
        assert closure(t) is program
        expected = prove_literal(GroundProgram(t), t.questions[1].literal)
        assert prove(t, t.questions[1]) == expected
        assert len(expected) == 1 and len(expected[0].nodes) == 101


class TestCheckFailureDemonstration:
    """Each rejection of a failure demonstration, on a graph that passes
    every other test of ``check_proof``."""

    def _theory(self):
        # "alan is young" fails: R2 needs green (derived by R1 from F1) and
        # big (concluded by nothing); R3 cannot fire either.
        return theory_of(
            [Literal("alan", "blue"), Literal("alan", "cold")],
            [([Literal("someone", "blue")], Literal("someone", "green")),
             ([Literal("someone", "green"), Literal("someone", "big")],
              Literal("someone", "young")),
             ([Literal("someone", "cold"), Literal("someone", "round")],
              Literal("someone", "kind"))],
            [Literal("alan", "young"), Literal("alan", "quiet")],
        )

    def _check(self, t, nodes, edges, question=0):
        return check_proof(t, t.questions[question], ProofGraph.of(nodes, edges))

    def test_gold_demonstration_accepted(self):
        t = self._theory()
        gold = ProofGraph.of(["F1", "R1", "R2", "NAF"], [("F1", "R1"), ("R1", "R2"), ("NAF", "R2")])
        assert prove(t, t.questions[0]) == [gold]
        assert check_proof(t, t.questions[0], gold)

    def test_selected_rule_node_missing(self):
        # R1 has no satisfiable antecedent, so a bare NAF would pass every other test
        t = theory_of([Literal("alan", "blue")],
                      [([Literal("someone", "big")], Literal("someone", "young"))],
                      [Literal("alan", "young")])
        assert self._check(t, ["R1", "NAF"], [("NAF", "R1")])
        assert not self._check(t, ["NAF"], [])

    def test_edge_leaving_selected_rule(self):
        # R2's instance for bob fires and feeds R3, while the one for alan,
        # the selected instance, fails on "alan is sad"
        t = theory_of([Literal("alan", "big"), Literal("bob", "big"), Literal("alan", "sad")],
                      [([Literal("someone", "big")], Literal("someone", "kind")),
                       ([Literal("someone", "kind"), Literal("someone", "sad", positive=False)],
                        Literal("someone", "young")),
                       ([Literal("bob", "young")], Literal("bob", "happy"))],
                      [Literal("alan", "young")])
        gold = ProofGraph.of(["F1", "R1", "R2", "NAF"], [("F1", "R1"), ("R1", "R2"), ("NAF", "R2")])
        assert prove(t, t.questions[0]) == [gold]
        assert self._check(t, gold.nodes, gold.edges)
        assert not self._check(t, ["F1", "F2", "R1", "R2", "R3", "NAF"],
                               [("F1", "R1"), ("F2", "R1"), ("R1", "R2"), ("NAF", "R2"),
                                ("R2", "R3")])

    def test_naf_edge_missing(self):
        assert not self._check(self._theory(), ["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")])

    def test_satisfiable_antecedent_not_supplied(self):
        assert not self._check(self._theory(), ["R2", "NAF"], [("NAF", "R2")])

    def test_edge_into_selected_rule_carries_nothing(self):
        assert not self._check(self._theory(), ["F1", "F2", "R1", "R2", "NAF"],
                               [("F1", "R1"), ("R1", "R2"), ("NAF", "R2"), ("F2", "R2")])

    def test_other_rule_node_never_fires(self):
        # R3 gets "alan is cold" from F2 but never "alan is round"
        assert not self._check(self._theory(), ["F1", "F2", "R1", "R2", "R3", "NAF"],
                               [("F1", "R1"), ("R1", "R2"), ("NAF", "R2"), ("F2", "R3"),
                                ("R3", "R2")])

    def test_unknown_node_raises_key_error_naming_the_first_sorted(self):
        t = self._theory()
        with pytest.raises(KeyError, match="unknown node id 'F9'"):
            self._check(t, ["F1", "F9", "R1", "R9"], [("F1", "R1"), ("F9", "R9"), ("R1", "R9")])

    def test_extra_nodes_next_to_bare_naf(self):
        # nothing concludes "alan is quiet"
        t = self._theory()
        assert self._check(t, ["NAF"], [], question=1)
        assert not self._check(t, ["F1", "R1", "NAF"], [("F1", "R1"), ("NAF", "R1")], question=1)


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

    def test_rule_cycle_counts_each_rule_once(self):
        p = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2"), ("R2", "R1")])
        assert proof_depth(p) == 2

    @pytest.mark.parametrize("edge", [("F1", "R1"), ("R1", "F1")])
    def test_edge_end_outside_nodes_raises_key_error(self, edge):
        with pytest.raises(KeyError):
            proof_depth(ProofGraph.of(["F1"], [edge]))

    @pytest.mark.parametrize("graph, error", [
        (ProofGraph.of(["F0"]), ValueError),
        (ProofGraph.of(["F1", "R1"], [("F1", "R1"), ("R1", "R2")]), KeyError),
    ], ids=["malformed_id", "edge_end_outside_nodes"])
    def test_a_graph_that_raises_raises_through_the_memo(self, graph, error):
        for _ in range(2):
            with pytest.raises(error):
                proof_depth(graph)
        assert proofgraph._measured_depth.cache_info().maxsize is not None

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_exhaustive_oracle_on_arbitrary_graphs(self, data):
        # any directed graph over a few ids: cycles, self-loops, rule edges
        # both ways and edges out of rules into facts or NAF
        nodes = data.draw(st.lists(st.sampled_from(
            ["F1", "F2", "R1", "R2", "R3", "R4", "NAF"]), min_size=1, unique=True))
        edges = data.draw(st.sets(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))))
        p = ProofGraph.of(nodes, edges)
        assert proof_depth(p) == oracles.exhaustive_depth(p)

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

    def test_stated_negation_of_a_derived_atom(self):
        # R1 derives "alan is young", so only a fact stating its negation
        # keeps the question true; when two facts state it, neither is needed
        blue, not_young = Literal("alan", "blue"), Literal("alan", "young", None, False)
        rules = [([Literal("someone", "blue")], Literal("someone", "young"))]
        once = theory_of([blue, not_young], rules, [not_young])
        twice = theory_of([blue, not_young, not_young], rules, [not_young])
        assert critical_sentences(once) == [{"F2"}]
        assert critical_sentences(twice) == [set()]
        for t in (once, twice):
            assert answer_question(t, t.questions[0]) is True
            assert prove(t, t.questions[0]) == [ProofGraph.of(["F2"])]
            assert check_proof(t, t.questions[0], ProofGraph.of(["F2"]))

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
