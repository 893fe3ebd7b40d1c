"""Known mutants of the library, pinned as tests.

A mutant is a module, an exact text of its source and a replacement. The
text must occur exactly once, so a mutant whose code has moved fails
loudly instead of testing nothing. The mutated source runs as a private
module beside the real one, and the mutant's check runs on a pinned
counterexample: it must fail on the mutant and pass on the module as it
stands (DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 1978).
"""

import sys
import types
from pathlib import Path

import pytest

import oracles
import ruleproofs
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.theory import record_to_theory

PACKAGE = Path(ruleproofs.__file__).parent


def load(module, text=None, replacement=None):
    """``ruleproofs.<module>`` executed afresh under a private name, with
    ``text`` replaced when given; its relative imports bind the real
    package's modules."""
    path = PACKAGE / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    if text is not None:
        assert source.count(text) == 1, f"{module}: the mutated text must occur exactly once"
        source = source.replace(text, replacement)
    mutant = types.ModuleType(f"ruleproofs._mutant_{module}")
    mutant.__package__ = "ruleproofs"
    sys.modules[mutant.__name__] = mutant  # dataclasses look their module up
    try:
        exec(compile(source, str(path), "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant


def stored_depth_is_checked(theory) -> bool:
    t = theory.Theory("T1", (theory.make_fact("F1", theory.Literal("alan", "blue")),), (), (
        theory.make_question("Q1", theory.Literal("alan", "blue"), gold_answer=True,
                             gold_proofs=(ProofGraph.of(["F1"]),), gold_depth=1),))
    return theory.validate_theory(t) == ["Q1: gold depth 1 != max proof depth 0"]


def tokens_must_read_back(theory) -> bool:
    # rendered "Alan likess Bob.", which the parser rejects
    t = theory.Theory("T1", (theory.make_fact("F1", theory.Literal("alan", "likes", "bob")),),
                      (), ())
    return theory.validate_theory(t) == [
        "relation verb 'likes' does not round-trip through the grammar"]


def negation_flips_the_sign(theory) -> bool:
    lit = theory.Literal("alan", "likes", "bob")
    return lit.negated() == theory.Literal("alan", "likes", "bob", positive=False) \
        and lit.negated().negated() == lit


# "Bob is red" through R1 from "Alan is kind", stated (F2) or derived (R3
# from F1), and "Bob is kind" through R3 from that: mixing the two
# supports gives a derivation of "Bob is blue" holding each unmixed one.
NON_MINIMAL = record_to_theory({
    "id": "T1",
    "facts": [{"id": "F1", "text": "Alan is red."}, {"id": "F2", "text": "Alan is kind."}],
    "rules": [{"id": "R1", "text": "If Alan is kind then Bob is red."},
              {"id": "R2", "text": "If someone is kind and red then they are blue."},
              {"id": "R3", "text": "If someone is red then they are kind."}],
    "questions": [{"id": "Q1", "text": "Bob is blue."}],
})


def proofs_are_minimal(reasoner) -> bool:
    q = NON_MINIMAL.questions[0]
    return reasoner.prove(NON_MINIMAL, q) == oracles.naive_proofs(NON_MINIMAL, q.literal)


MUTANTS = {
    "validate_theory_ignores_depth": (
        "theory", "            if measured != q.gold_depth:\n", "            if False:\n",
        stored_depth_is_checked),
    "every_token_reads_back": (
        "theory", "        return read(written(token)) == token\n", "        return True\n",
        tokens_must_read_back),
    "negated_keeps_the_sign": (
        "theory", "Literal(self.subject, self.predicate, self.obj, not self.positive)",
        "Literal(self.subject, self.predicate, self.obj, self.positive)",
        negation_flips_the_sign),
    "proved_keeps_non_minimal_fragments": (
        "reasoner",
        "        minimal = tuple(f for f in fragments if not any(\n"
        "            (g.nodes, g.edges) != (f.nodes, f.edges)"
        " and g.nodes <= f.nodes and g.edges <= f.edges\n"
        "            for g in fragments))\n",
        "        minimal = fragments\n",
        proofs_are_minimal),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_check(name):
    module, text, replacement, check = MUTANTS[name]
    assert check(load(module))
    assert not check(load(module, text, replacement))
