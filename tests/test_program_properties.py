"""Property tests for the compiled ground program on theories the
generator never builds: ground rules with negation, multi-antecedent
variable rules over three or more entities, relations, contradictory
negative facts, an unvalidated variable rule with only negative
antecedents whose entity is mentioned by a single fact, and rules that
may form cycles through negation. Failure selection also runs on layered
chains, where failure depth decides between an atom's concluders. Proof
search runs on both, and on theories whose rules form positive cycles,
against an enumeration without tables. Closure, critical sentences and
proof checking also draw theories with positive cycles, and proof checks
of emitted proofs and of their single-edge and single-node mutations are
compared with a checker that tests antecedents one source at a time."""

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ruleproofs.proofgraph import NAF, ProofGraph
from ruleproofs.reasoner import (
    GroundProgram,
    NonStratifiedTheory,
    answer_question,
    check_proof,
    closure,
    critical_sentences,
    prove,
    prove_literal,
    select_failed_instance,
)
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule

ENTITIES = ("alan", "bob", "carol", "dave")
LONELY = "zed"  # mentioned by one fact only, unless a question names it
# A predicate's level orders the strata: a rule's positive antecedents sit at
# or below its consequent's level and its negative ones strictly below, so
# every theory drawn with ``stratified`` set is stratified (positive cycles
# stay possible). Without it, rule bodies ignore the levels.
LEVELS = {"blue": 0, "big": 0, "like": 0, "cold": 1, "kind": 1, "see": 1, "round": 2, "quiet": 2}
RELATIONS = {"like", "see"}


def literal(subject, predicate, obj, positive=True):
    return Literal(subject, predicate, obj if predicate in RELATIONS else None, positive)


# Strategies are built once and reused: a strategy object is validated on
# its first draw, and that took longer than the draws themselves.
ENTITY = st.sampled_from(ENTITIES)
UP_TO_LEVEL = {top: st.sampled_from(sorted(p for p, lv in LEVELS.items() if lv <= top))
               for top in range(max(LEVELS.values()) + 2)}
HEADS = {True: st.sampled_from(sorted(p for p, lv in LEVELS.items() if lv >= 1)),
         False: st.sampled_from(sorted(LEVELS))}
SUBJECTS = st.sampled_from(("someone",) + ENTITIES)


@st.composite
def antecedent(draw, subject, head_level, positive):
    top = head_level if positive else head_level - 1
    predicate = draw(UP_TO_LEVEL[top])
    return literal(subject, predicate, draw(ENTITY), positive)


@functools.cache
def antecedent_lists(subject, level):
    return (st.lists(antecedent(subject, level, True), min_size=1, max_size=3),
            st.lists(antecedent(subject, level, False), max_size=2))


@st.composite
def rule_body(draw, stratified):
    predicate = draw(HEADS[stratified])
    level = LEVELS[predicate] if stratified else max(LEVELS.values()) + 1
    subject = draw(SUBJECTS)
    positives, negatives = antecedent_lists(subject, level)
    body = draw(positives) + draw(negatives)
    return body, literal(subject, predicate, draw(ENTITY))


FACTS = st.lists(st.builds(literal, ENTITY, st.sampled_from(sorted(LEVELS)), ENTITY,
                           st.booleans()), max_size=6, unique=True)
BODIES = {stratified: st.lists(rule_body(stratified), min_size=1, max_size=5)
          for stratified in (True, False)}
QUESTIONS = st.lists(st.builds(literal, st.sampled_from(ENTITIES + (LONELY,)),
                               st.sampled_from(sorted(LEVELS)), ENTITY, st.booleans()),
                     min_size=1, max_size=5)


@st.composite
def theories(draw, stratified=True):
    facts = draw(FACTS)
    bodies = draw(BODIES[stratified])
    if draw(st.booleans()):
        facts.append(Literal(LONELY, "big"))
        bodies.append(([Literal("someone", "cold", None, False)], Literal("someone", "round")))
    draw(st.randoms()).shuffle(facts)
    questions = draw(QUESTIONS)
    return Theory(
        "T",
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(facts)),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(bodies)),
        tuple(make_question(f"Q{i + 1}", lit) for i, lit in enumerate(questions)),
    )


# Levels of one entity's attributes: "blue" is stated, "big" is not, and
# each level above is concluded by two or three rules, each reading one of
# the two levels below it and perhaps negating a lower one. So every atom an
# antecedent names has a failure depth of its own, and chains run long.
CHAIN = ("blue", "big", "cold", "kind", "round", "quiet", "young", "green", "red",
         "nice", "rough", "tall")

LAYER_SUBJECT = st.sampled_from(("someone", ENTITIES[0]))
LAYER_WIDTH = st.integers(2, 3)
LAYER_STRATEGIES = {
    level: (st.sampled_from(CHAIN[level - 2:level]),
            st.lists(st.sampled_from(CHAIN[:level]), max_size=1))
    for level in range(2, len(CHAIN))
}


@st.composite
def layered_chains(draw):
    bodies = []
    for level, (reads, negates) in LAYER_STRATEGIES.items():
        for _ in range(draw(LAYER_WIDTH)):
            s = draw(LAYER_SUBJECT)
            antecedents = [Literal(s, draw(reads))]
            antecedents += [Literal(s, p, None, False) for p in draw(negates)]
            bodies.append((antecedents, Literal(s, CHAIN[level])))
    bodies = draw(st.permutations(bodies))
    return Theory(
        "T",
        (make_fact("F1", Literal(ENTITIES[0], CHAIN[0])),),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(bodies)),
        (make_question("Q1", Literal(ENTITIES[0], CHAIN[-1])),),
    )


# One entity whose attributes in LOOPED are stated or concluded and read
# each other, so positive cycles through derived atoms are common. Rules
# negate only "big", which nothing concludes, so every theory is stratified.
# Questions ask for the entity's atoms in both signs.
LOOPED = ("cold", "kind", "round")
LOOP_FACTS = st.lists(st.sampled_from([Literal(ENTITIES[0], p) for p in ("blue",) + LOOPED[:2]]
                                      + [Literal(ENTITIES[0], "big", None, False)]),
                      min_size=1, max_size=3, unique=True)
LOOP_BODY = st.tuples(st.sampled_from(("someone", ENTITIES[0])),
                      st.lists(st.sampled_from(("blue",) + LOOPED), min_size=1, max_size=2,
                               unique=True),
                      st.booleans(), st.sampled_from(LOOPED))
LOOP_QUESTIONS = st.lists(st.sampled_from([Literal(ENTITIES[0], p, None, positive)
                                           for p in ("blue", "big") + LOOPED
                                           for positive in (True, False)]),
                          min_size=1, max_size=4)


@st.composite
def looped_theories(draw):
    bodies = [([Literal(s, p) for p in reads] + [Literal(s, "big", None, False)] * negates,
               Literal(s, head))
              for s, reads, negates, head in draw(st.lists(LOOP_BODY, min_size=2, max_size=7))]
    return Theory(
        "T",
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(draw(LOOP_FACTS))),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(bodies)),
        tuple(make_question(f"Q{i + 1}", lit) for i, lit in enumerate(draw(LOOP_QUESTIONS))),
    )


# Two entities and two attributes, where a ground rule concludes one of
# bob's attributes from one of alan's, and variable rules derive each
# attribute from the other for both. A fact of alan's and its derivation
# through a variable rule then give two supports that meet again under the
# rule reading both of bob's attributes, so one of its fragments mixes
# them and holds the unmixed ones: the case the minimality filter of
# ``_proved`` exists for, reached in about one draw in ten.
MIXED = ("red", "kind")
MIXED_PAIRS = st.lists(st.tuples(st.sampled_from(MIXED), st.sampled_from(MIXED)),
                       min_size=1, max_size=2)
MIXED_FACTS = st.lists(st.sampled_from([Literal(ENTITIES[0], p) for p in MIXED]),
                       min_size=1, max_size=2, unique=True)


@st.composite
def mixed_support_theories(draw):
    alan, bob = ENTITIES[:2]
    bodies = [([Literal(alan, a)], Literal(bob, c)) for a, c in draw(MIXED_PAIRS)]
    bodies += [([Literal("someone", a)], Literal("someone", c)) for a, c in draw(MIXED_PAIRS)]
    bodies.append(([Literal("someone", p) for p in MIXED], Literal("someone", "blue")))
    bodies = draw(st.permutations(bodies))
    return Theory(
        "T",
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(draw(MIXED_FACTS))),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(bodies)),
        (make_question("Q1", Literal(bob, "blue")),),
    )


def without(t: Theory, sentence_id: str) -> Theory:
    return replace(t, facts=tuple(f for f in t.facts if f.id != sentence_id),
                   rules=tuple(r for r in t.rules if r.id != sentence_id))


def derived_atoms(program: GroundProgram, removed=None) -> set:
    flags, _fired = program.derive(removed)
    return {atom for atom, i in program.atom_ids.items() if flags[i]}


# Drawn theories with and without positive cycles through derived atoms.
ANY_THEORY = st.one_of(theories(), looped_theories())


@settings(max_examples=150, deadline=None)
@given(ANY_THEORY)
def test_program_matches_oracle_on_every_ablation(t):
    program = closure(t)
    assert derived_atoms(program) == oracles.naive_closure(t) == set(program.derived)
    instances = oracles._instances(t)
    assert program.rule_ids == [t.rules[index].id for index, _binding, _ants, _head in instances]
    # the id rows name the atoms of the oracle's instance at the same index
    for i, (_index, _binding, antecedents, consequent) in enumerate(instances):
        assert program.atoms[program.heads[i]] == consequent.atom()
        for ids, positive in ((program.positives[i], True), (program.negatives[i], False)):
            assert [program.atoms[a] for a in ids] == \
                [ant.atom() for ant in antecedents if ant.positive == positive]
    # an ablation keeps the theory's grounding: its entities, removed sentence or not
    entities = oracles._entities(t)
    for sentence_id in t.sentence_ids():
        assert derived_atoms(program, sentence_id) == oracles.naive_closure(
            without(t, sentence_id), entities), sentence_id


@settings(max_examples=150, deadline=None)
@given(ANY_THEORY)
def test_critical_sentences_match_per_question_oracle(t):
    expected = []
    for q in t.questions:
        base = oracles.naive_answer(t, q.literal)
        expected.append({sid for sid in t.sentence_ids()
                         if oracles.naive_answer(without(t, sid), q.literal) != base})
    assert critical_sentences(t) == expected


@settings(max_examples=150, deadline=None)
@given(ANY_THEORY)
def test_check_proof_accepts_every_emitted_proof(t):
    program = closure(t)
    for q in t.questions:
        for p in prove_literal(program, q.literal):
            assert check_proof(t, q, p), (q.text, p.to_dict())


def single_mutations(t: Theory, p: ProofGraph):
    """``p`` with one edge added or removed, one node removed with its
    edges, or one node of ``t`` added with an edge to or from a node of ``p``."""
    nodes = sorted(p.nodes)
    for edge in itertools.permutations(nodes, 2):
        yield ProofGraph(p.nodes, p.edges ^ {edge})
    for node in nodes:
        yield ProofGraph(p.nodes - {node}, frozenset(e for e in p.edges if node not in e))
    for new in sorted({*t.sentence_ids(), NAF} - p.nodes):
        for old in nodes:
            for edge in ((new, old), (old, new)):
                yield ProofGraph(p.nodes | {new}, p.edges | {edge})


@settings(max_examples=100, deadline=None)
@given(ANY_THEORY)
def test_check_proof_agrees_with_naive_checker_on_mutated_proofs(t):
    program = closure(t)
    for q in t.questions:
        for gold in prove_literal(program, q.literal):
            for p in (gold, *single_mutations(t, gold)):
                assert check_proof(t, q, p) == oracles.naive_check_proof(t, q, p), \
                    (q.text, p.to_dict())


def assert_failed_instances_match_path_oracle(t):
    program = closure(t)
    atoms = {program.atoms[head] for head in program.heads} - program.derived
    expected = oracles.naive_failed_instances(t, atoms)
    flags = program.flags
    for atom in atoms:
        i = select_failed_instance(program, atom)
        failing = [Literal(*program.atoms[b]) for b in program.positives[i] if not flags[b]] \
            + [Literal(*program.atoms[b], False) for b in program.negatives[i] if flags[b]]
        index, _binding, expected_failing = expected[atom]
        # the rule id and the head name the instance: a variable rule's
        # binding is its head's subject; the id rows list positive
        # antecedents before negative ones, each in rule order
        assert (program.rule_ids[i], program.atoms[program.heads[i]], tuple(failing)) == (
            t.rules[index].id, atom,
            tuple(sorted(expected_failing, key=lambda a: not a.positive))), atom


@settings(max_examples=300, deadline=None)
@given(theories())
def test_failed_instance_matches_path_oracle(t):
    assert_failed_instances_match_path_oracle(t)


@settings(max_examples=300, deadline=None)
@given(layered_chains())
def test_failed_instance_matches_path_oracle_on_layered_chains(t):
    assert_failed_instances_match_path_oracle(t)


def assert_every_literal_proved_as_oracle(t, rng):
    program = GroundProgram(t)  # fresh, so the drawn order is its fill order
    literals = [Literal(*atom, positive) for atom in program.atoms for positive in (True, False)]
    rng.shuffle(literals)  # one program serves every call, in a drawn order
    for lit in literals:
        assert prove_literal(program, lit) == oracles.naive_proofs(t, lit, 10), lit


@settings(max_examples=100, deadline=None)
@given(theories(), st.randoms(use_true_random=False))
def test_proofs_match_unmemoized_oracle(t, rng):
    assert_every_literal_proved_as_oracle(t, rng)


@settings(max_examples=150, deadline=None)
@given(looped_theories(), st.randoms(use_true_random=False))
def test_proofs_match_unmemoized_oracle_on_positive_cycles(t, rng):
    assert_every_literal_proved_as_oracle(t, rng)


@settings(max_examples=50, deadline=None)
@given(layered_chains(), st.randoms(use_true_random=False))
def test_proofs_match_unmemoized_oracle_on_layered_chains(t, rng):
    assert_every_literal_proved_as_oracle(t, rng)


@settings(max_examples=100, deadline=None)
@given(mixed_support_theories(), st.randoms(use_true_random=False))
def test_proofs_match_unmemoized_oracle_on_mixed_supports(t, rng):
    assert_every_literal_proved_as_oracle(t, rng)


def calls_on(t: Theory, program: GroundProgram):
    """Every reasoner entry point on t, each as (function, arguments):
    answers and proofs per question, a check of each proof the program
    emits, critical sentences, and a failure selection per atom."""
    calls = [(f, (t, q)) for q in t.questions for f in (answer_question, prove)]
    calls += [(check_proof, (t, q, p)) for q in t.questions
              for p in prove_literal(program, q.literal)]
    calls.append((critical_sentences, (t,)))
    calls += [(select_failed_instance, (program, atom)) for atom in program.atoms]
    return calls


@settings(max_examples=100, deadline=None)
@given(ANY_THEORY, st.randoms(use_true_random=False))
def test_shared_program_answers_as_fresh_ones(t, rng):
    # each expectation comes from a program of its own: a fresh
    # GroundProgram, or closure on an equal but distinct theory
    expected = [f(GroundProgram(t) if f is select_failed_instance else replace(t), *args[1:])
                for f, args in calls_on(t, GroundProgram(t))]
    program = closure(t)
    calls = list(enumerate(calls_on(t, program)))
    rng.shuffle(calls)  # the shared program serves every call, in a drawn order
    for k, (f, args) in calls:
        assert f(*args) == expected[k], (f.__name__, args[1:])
    assert closure(t) is program


@settings(max_examples=300, deadline=None)
@given(theories(stratified=False))
def test_closure_rejects_exactly_the_negation_cycles(t):
    if oracles.negation_cycle(t) is not None:
        with pytest.raises(NonStratifiedTheory):
            closure(t)
    else:
        assert set(closure(t).derived) == oracles.naive_closure(t)


def test_lonely_entity_keeps_its_instances_without_its_fact():
    # "zed" is named only by F1. Removing F1 keeps R1's instance bound to
    # zed, so "zed is round" is still derived, though the theory without F1
    # names no zed; no question names zed, so no answer reads that atom.
    t = Theory(
        "T",
        (make_fact("F1", Literal(LONELY, "big")), make_fact("F2", Literal("alan", "cold"))),
        (make_rule("R1", [Literal("someone", "cold", None, False)],
                   Literal("someone", "round")),),
        (make_question("Q1", Literal("alan", "round")),),
    )
    program = closure(t)
    assert (LONELY, "round", None) in derived_atoms(program)
    assert (LONELY, "round", None) in derived_atoms(program, "F1")
    assert (LONELY, "round", None) not in oracles.naive_closure(without(t, "F1"))
    assert derived_atoms(program, "F1") == oracles.naive_closure(
        without(t, "F1"), oracles._entities(t))
    assert critical_sentences(t) == [{"F2"}]
