"""Property tests for the compiled ground program on theories the
generator never builds: ground rules with negation, multi-antecedent
variable rules over three or more entities, relations, contradictory
negative facts, and an unvalidated variable rule with only negative
antecedents whose entity is mentioned by a single fact."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

import oracles
from ruleproofs.reasoner import (
    GroundProgram,
    check_proof,
    closure,
    critical_sentences,
    prove_literal,
)
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule

ENTITIES = ("alan", "bob", "carol", "dave")
LONELY = "zed"  # mentioned by one fact only, unless a question names it
# A predicate's level orders the strata: a rule's positive antecedents sit at
# or below its consequent's level and its negative ones strictly below, so
# every theory drawn here is stratified (positive cycles stay possible).
LEVELS = {"blue": 0, "big": 0, "likes": 0, "cold": 1, "kind": 1, "sees": 1, "round": 2, "quiet": 2}
RELATIONS = {"likes", "sees"}


def literal(subject, predicate, obj, positive=True):
    return Literal(subject, predicate, obj if predicate in RELATIONS else None, positive)


@st.composite
def antecedent(draw, subject, head_level, positive):
    top = head_level if positive else head_level - 1
    predicate = draw(st.sampled_from(sorted(p for p, lv in LEVELS.items() if lv <= top)))
    return literal(subject, predicate, draw(st.sampled_from(ENTITIES)), positive)


@st.composite
def rule_body(draw):
    predicate = draw(st.sampled_from(sorted(p for p, lv in LEVELS.items() if lv >= 1)))
    level = LEVELS[predicate]
    subject = draw(st.sampled_from(("someone",) + ENTITIES))
    positives = draw(st.lists(antecedent(subject, level, True), min_size=1, max_size=3))
    negatives = draw(st.lists(antecedent(subject, level, False), max_size=2))
    head = literal(subject, predicate, draw(st.sampled_from(ENTITIES)))
    return positives + negatives, head


@st.composite
def theories(draw):
    ground = st.builds(literal, st.sampled_from(ENTITIES), st.sampled_from(sorted(LEVELS)),
                       st.sampled_from(ENTITIES), st.booleans())
    facts = draw(st.lists(ground, max_size=6, unique=True))
    bodies = draw(st.lists(rule_body(), min_size=1, max_size=5))
    if draw(st.booleans()):
        facts.append(Literal(LONELY, "big"))
        bodies.append(([Literal("someone", "cold", None, False)], Literal("someone", "round")))
    draw(st.randoms()).shuffle(facts)
    questions = draw(st.lists(
        st.builds(literal, st.sampled_from(ENTITIES + (LONELY,)), st.sampled_from(sorted(LEVELS)),
                  st.sampled_from(ENTITIES), st.booleans()),
        min_size=1, max_size=5))
    return Theory(
        "T",
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(facts)),
        tuple(make_rule(f"R{i + 1}", a, c) for i, (a, c) in enumerate(bodies)),
        tuple(make_question(f"Q{i + 1}", lit) for i, lit in enumerate(questions)),
    )


def without(t: Theory, sentence_id: str) -> Theory:
    return replace(t, facts=tuple(f for f in t.facts if f.id != sentence_id),
                   rules=tuple(r for r in t.rules if r.id != sentence_id))


def derived_atoms(program: GroundProgram, removed=None) -> set:
    flags, _fired = program.derive(removed)
    return {atom for atom, i in program.atom_ids.items() if flags[i]}


@settings(max_examples=150, deadline=None)
@given(theories())
def test_program_matches_oracle_on_every_ablation(t):
    program = GroundProgram(t)
    assert derived_atoms(program) == oracles.naive_closure(t) == set(closure(t).derived)
    for sentence_id in t.sentence_ids():
        assert derived_atoms(program, sentence_id) == oracles.naive_closure(
            without(t, sentence_id)), sentence_id


@settings(max_examples=150, deadline=None)
@given(theories())
def test_critical_sentences_match_per_question_oracle(t):
    expected = []
    for q in t.questions:
        base = oracles.naive_answer(t, q.literal)
        expected.append({sid for sid in t.sentence_ids()
                         if oracles.naive_answer(without(t, sid), q.literal) != base})
    assert critical_sentences(t) == expected


@settings(max_examples=150, deadline=None)
@given(theories())
def test_check_proof_accepts_every_emitted_proof(t):
    c = closure(t)
    for q in t.questions:
        for p in prove_literal(t, c, q.literal):
            assert check_proof(t, q, p), (q.text, p.to_dict())


def test_lonely_entity_leaves_with_its_fact():
    # "zed" is named only by F1, so removing F1 also removes the instances
    # of R1 bound to zed, and "zed is round" is no longer derived.
    t = Theory(
        "T",
        (make_fact("F1", Literal(LONELY, "big")), make_fact("F2", Literal("alan", "cold"))),
        (make_rule("R1", [Literal("someone", "cold", None, False)],
                   Literal("someone", "round")),),
        (make_question("Q1", Literal("alan", "round")),),
    )
    program = GroundProgram(t)
    assert (LONELY, "round", None) in derived_atoms(program)
    assert (LONELY, "round", None) not in derived_atoms(program, "F1")
    assert derived_atoms(program, "F1") == oracles.naive_closure(without(t, "F1"))
    assert critical_sentences(t) == [{"F2"}]
