"""Build a theory by hand, render it, and round-trip it through the grammar.

A theory is a tiny rule-base: named facts, if-then rules, and questions.
In memory every item keeps a structured literal form plus a rendered
sentence; a theory record stores only the sentence, and reading it back
parses each literal from that text. ``validate_theory`` checks that each
text parses back to its structure, so a valid theory reads back as itself.
"""

import io
import json
from dataclasses import replace

from ruleproofs.theory import (
    Literal,
    Theory,
    make_fact,
    make_question,
    make_rule,
    parse_rule_sentence,
    read_theories,
    theory_to_record,
    validate_theory,
    write_theories,
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
stale = replace(theory, facts=(replace(theory.facts[0], text="Alan is green."),
                               *theory.facts[1:]))
print("With F1's text edited to 'Alan is green.':", validate_theory(stale))

record = theory_to_record(theory)
print("\nTheory record: each sentence is stored once, as its text")
for key in ("facts", "rules", "questions"):
    print(f"  {key}: {json.dumps(record[key])}")
buffer = io.StringIO()
write_theories(buffer, [theory])
(again,) = read_theories(io.StringIO(buffer.getvalue()))
print("Reading the JSONL line back re-parses every literal exactly:", again == theory)
