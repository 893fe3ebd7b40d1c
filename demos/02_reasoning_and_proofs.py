"""Answer questions and extract every kind of proof graph.

The reasoner compiles the rule-base once into a ground program and
computes its closure under the closed-world assumption, then builds one
graph per question: a single fact for a lookup, a derivation DAG when
rules fire (with a collapsed NAF node for negations established by
failure), a bare NAF node when nothing even concludes the statement, and
a failed-rule demonstration otherwise. Critical sentences are found for
all of a theory's questions at once, from single-sentence ablations of
the same program.
"""

from ruleproofs.proofgraph import proof_depth, to_dot
from ruleproofs.reasoner import (
    answer_question,
    check_proof,
    closure,
    critical_sentences,
    prove,
)
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule

theory = Theory(
    "demo",
    facts=(
        make_fact("F1", Literal("wire", "live")),
        make_fact("F2", Literal("battery", "charged")),
    ),
    rules=(
        make_rule("R1", [Literal("something", "live")], Literal("something", "conducting")),
        make_rule("R2", [Literal("something", "conducting"),
                         Literal("something", "broken", positive=False)],
                  Literal("something", "warm")),
        make_rule("R3", [Literal("wire", "rusty")], Literal("wire", "humming")),
    ),
    questions=(
        make_question("Q1", Literal("battery", "charged")),        # lookup
        make_question("Q2", Literal("wire", "warm")),              # derivation with NAF
        make_question("Q3", Literal("wire", "humming")),           # failed rule
        make_question("Q4", Literal("battery", "glowing")),        # nothing concludes it
        make_question("Q5", Literal("wire", "warm", None, False)),  # negation, disproved
    ),
)

c = closure(theory)
print("Derived atoms:", sorted(c.derived))

for q in theory.questions:
    answer = answer_question(theory, q)
    proofs = prove(theory, q)
    print(f"\n{q.id}: {q.text}  ->  {answer}")
    for p in proofs:
        d = p.to_dict()
        print(f"  proof nodes={d['nodes']} edges={d['edges']} depth={proof_depth(p)}")
        assert check_proof(theory, q, p)

print("\nCritical sentences per question (removal flips the answer):")
for q, critical in zip(theory.questions, critical_sentences(theory)):
    print(f"  {q.id}: {sorted(critical)}")

print("\nDOT rendering of Q2's proof:\n")
print(to_dot(prove(theory, theory.questions[1])[0], title="wire is warm"))
