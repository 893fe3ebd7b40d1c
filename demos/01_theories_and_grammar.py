"""Build a theory by hand, render it, and round-trip it through the grammar.

A theory is a tiny rule-base: named facts, if-then rules, and questions.
Each item is its sentence: building an item parses its literal from the
text, so an item's structure always agrees with its text, a text the
grammar cannot state cannot be built, and a theory record, which stores
only the sentences, reads back as the theory itself.
"""

import io
import json
from dataclasses import replace

from ruleproofs.theory import (
    Literal,
    Theory,
    TheoryParseError,
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
edited = replace(theory.facts[0], text="Alan is green.")
print("With F1's text edited to 'Alan is green.', F1's literal is", edited.literal)
try:
    replace(theory.facts[0], text="Alan is green")
except TheoryParseError as exc:
    print("A text the grammar cannot state is not built:", exc)

record = theory_to_record(theory)
print("\nTheory record: each sentence is stored once, as its text")
for key in ("facts", "rules", "questions"):
    print(f"  {key}: {json.dumps(record[key])}")
buffer = io.StringIO()
write_theories(buffer, [theory])
(again,) = read_theories(io.StringIO(buffer.getvalue()))
print("Reading the JSONL line back re-parses every literal exactly:", again == theory)
