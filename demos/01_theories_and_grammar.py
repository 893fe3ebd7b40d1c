"""Build a theory by hand, render it, and round-trip it through the grammar.

A theory is a tiny rule-base: named facts, if-then rules, and questions.
In memory every item keeps a structured literal form plus a rendered
sentence; a theory record stores only the sentence, and reading it back
parses each literal from that text.
"""

import json

from ruleproofs.theory import (
    Literal,
    Theory,
    make_fact,
    make_question,
    make_rule,
    parse_rule_sentence,
    parse_theory,
    theory_to_record,
    validate_theory,
)

theory = Theory(
    "demo",
    facts=(
        make_fact("F1", Literal("alan", "blue")),
        make_fact("F2", Literal("alan", "like", "bob")),
        make_fact("F3", Literal("carol", "kind", positive=False)),
    ),
    rules=(
        make_rule("R1", [Literal("someone", "blue"), Literal("someone", "like", "bob")],
                  Literal("someone", "young")),
        make_rule("R2", [Literal("someone", "young")], Literal("someone", "happy")),
        make_rule("R3", [Literal("carol", "kind", None, False)], Literal("carol", "quiet")),
    ),
    questions=(
        make_question("Q1", Literal("alan", "happy")),
        make_question("Q2", Literal("carol", "quiet")),
    ),
)

print("Rendered sentences")
for item in (*theory.facts, *theory.rules, *theory.questions):
    print(f"  {item.id}: {item.text}")

print("\nParsing a sentence back into structure")
print(" ", parse_rule_sentence("If someone is blue and likes Bob then they are young."))

print("\nValidation violations:", validate_theory(theory) or "none")

record = theory_to_record(theory)
print("\nTheory record: each sentence is stored once, as its text")
for key in ("facts", "rules", "questions"):
    print(f"  {key}: {json.dumps(record[key])}")
again = parse_theory(json.dumps(record))
print("Record round-trip re-parses every literal exactly:", again == theory)
