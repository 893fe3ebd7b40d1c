"""Known mutants of the library, pinned as tests.

A mutant is a module, an exact text of its source and a replacement. The
text must occur exactly once, so a mutant whose code has moved fails
loudly instead of testing nothing. The mutated source runs as a private
module beside the real one, and the mutant's check runs on a pinned
counterexample: it must fail on the mutant and pass on the module as it
stands (DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 1978).
"""

import io
import json
import sys
import types
from pathlib import Path

import pytest

import oracles
import ruleproofs
from ruleproofs.potentials import Potentials
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.theory import (Literal, Theory, layout_ids, make_fact, make_question,
                               make_rule, record_to_theory)

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


def build_errors_name_the_item(theory) -> bool:
    # rendered "Alan likess Bob.", which the parser rejects
    try:
        theory.make_fact("F1", theory.Literal("alan", "likes", "bob"))
    except theory.TheoryParseError as exc:
        return str(exc) == "F1: relation verb 'likes' must be in base form"
    return False


def makers_keep_the_given_structure(theory) -> bool:
    # rendered "Alan is blue.", which reads as alan, not Alan
    try:
        theory.make_fact("F1", theory.Literal("Alan", "blue"))
    except theory.TheoryParseError as exc:
        return str(exc) == "F1: text 'Alan is blue.' reads as another structure"
    return False


def gold_proofs_are_read_checked(theory) -> bool:
    t = theory.Theory("T1", (theory.make_fact("F1", theory.Literal("alan", "blue")),), (), (
        theory.make_question("Q1", theory.Literal("alan", "blue"), gold_answer=True,
                             gold_proofs=(ProofGraph.of(["F9"]),)),))
    return theory.validate_theory(t) == ["a gold proof names unknown node 'F9'"]


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


def answer(reasoner, text, question):
    t = record_to_theory({"id": "T1", "facts": [{"id": "F1", "text": text}], "rules": [],
                          "questions": [{"id": "Q1", "text": question}]})
    return reasoner.answer_question(t, t.questions[0])


def each_theory_gets_its_program(reasoner) -> bool:
    return answer(reasoner, "Alan is blue.", "Alan is blue.") \
        and not answer(reasoner, "Alan is red.", "Alan is blue.")


def theory_of_rules(*rules):
    return record_to_theory({
        "id": "T1", "facts": [{"id": "F1", "text": "Alan is blue."}],
        "rules": [{"id": f"R{i + 1}", "text": text} for i, text in enumerate(rules)],
        "questions": [{"id": "Q1", "text": "Alan is young."}]})


# Young fails through green, which fails through "not blue" (depth 1), and
# through kind, which fails through round, which nothing concludes (depth
# 1): R1 and R2 tie, and R1 comes first.
FAILING_NEGATION = theory_of_rules(
    "If someone is green then they are young.", "If someone is kind then they are young.",
    "If someone is not blue then they are green.", "If someone is round then they are kind.")

# Green fails at depth 2 through R3 <- R4, listed before the rule it reads;
# kind fails at depth 3 through R5 -> R6 -> R7, so R1 is shown.
CHAINS_LISTED_BACKWARDS = theory_of_rules(
    "If someone is green then they are young.", "If someone is kind then they are young.",
    "If someone is cold then they are green.", "If someone is round then they are cold.",
    "If someone is quiet then they are big.", "If someone is big then they are rough.",
    "If someone is rough then they are kind.")


# Red needs "not green" (R1) and green needs red (R2): a cycle through negation.
NEGATION_CYCLE = theory_of_rules(
    "If someone is not green then they are red.", "If someone is red then they are green.")


# Young holds through R1 from F1, so removing either one flips the answer.
RULE_CRITICAL = theory_of_rules("If someone is blue then they are young.")


def removed_rule_stops_firing(reasoner) -> bool:
    return reasoner.critical_sentences(RULE_CRITICAL) == [{"F1", "R1"}]


def negation_cycles_are_rejected(reasoner) -> bool:
    try:
        reasoner.closure(NEGATION_CYCLE)
        rejected = False
    except reasoner.NonStratifiedTheory:
        rejected = True
    return rejected == (oracles.negation_cycle(NEGATION_CYCLE) is not None)


# Green holds through R1, so R2's "not green" fails and young does not hold.
NEGATION_BLOCKS = theory_of_rules(
    "If someone is blue then they are green.", "If someone is not green then they are young.")


def failed_negation_blocks(reasoner) -> bool:
    q = NEGATION_BLOCKS.questions[0]
    return reasoner.answer_question(NEGATION_BLOCKS, q) \
        == oracles.naive_answer(NEGATION_BLOCKS, q.literal)


# Red holds through R3 from F1. NAF cannot supply "Alan is not green", which
# R1 derives, so a proof that fires R2 from NAF is wrong.
NAF_FOR_DERIVED = record_to_theory({
    "id": "T1", "facts": [{"id": "F1", "text": "Alan is blue."}],
    "rules": [{"id": "R1", "text": "If someone is blue then they are green."},
              {"id": "R2", "text": "If someone is not green then they are red."},
              {"id": "R3", "text": "If someone is blue then they are red."}],
    "questions": [{"id": "Q1", "text": "Alan is red."}]})


def naf_supplies_underived_atoms_only(reasoner) -> bool:
    q = NAF_FOR_DERIVED.questions[0]
    gold = oracles.naive_proofs(NAF_FOR_DERIVED, q.literal)
    wrong = ProofGraph.of(["NAF", "R2"], [("NAF", "R2")])
    return gold == [ProofGraph.of(["F1", "R3"], [("F1", "R3")])] \
        and reasoner.check_proof(NAF_FOR_DERIVED, q, gold[0]) \
        and not reasoner.check_proof(NAF_FOR_DERIVED, q, wrong)


# Cold needs blue and big, and F1 supplies blue alone: R1 does not fire.
BOTH_ANTECEDENTS = record_to_theory({
    "id": "T1", "facts": [{"id": "F1", "text": "Alan is blue."},
                          {"id": "F2", "text": "Alan is big."}],
    "rules": [{"id": "R1", "text": "If someone is blue and big then they are cold."}],
    "questions": [{"id": "Q1", "text": "Alan is cold."}]})


def rule_fires_on_all_its_antecedents(reasoner) -> bool:
    q = BOTH_ANTECEDENTS.questions[0]
    gold = ProofGraph.of(["F1", "F2", "R1"], [("F1", "R1"), ("F2", "R1")])
    half = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
    return all(reasoner.check_proof(BOTH_ANTECEDENTS, q, p)
               == oracles.naive_check_proof(BOTH_ANTECEDENTS, q, p) == (p == gold)
               for p in (gold, half))


def repair_ties_toward_the_smallest_pair(decoder) -> bool:
    # F1 -> R1 is kept; R2 joins over F1 -> R2, R1 -> R2 or R2 -> R1, each
    # at the same flip cost
    edge_prob = [[0.0] * 4 for _ in range(4)]
    edge_prob[0][1] = 0.9
    edge_prob[0][2] = edge_prob[1][2] = edge_prob[2][1] = 0.4
    p = Potentials([0.9, 0.9, 0.9, 0.1], edge_prob, 1)
    _objective, chosen = oracles.brute_force_decode(p.node_prob, p.edge_prob, p.num_facts)
    ids = layout_ids(1, 4)
    return decoder.decode_proof(p).proof.edges == {(ids[m], ids[n]) for m, n in chosen}


def flow_off_edges_is_rejected(decoder) -> bool:
    # balanced at every node and within capacity, but R1 -> R2 carries flow
    # and is no edge of the proof
    p = ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("F1", "R2")])
    flow = {("source", "F1"): 3.0, ("F1", "sink"): 1.0,
            ("F1", "R1"): 2.0, ("R1", "sink"): 1.0,
            ("R1", "R2"): 1.0, ("R2", "sink"): 1.0}
    return not decoder.verify_flow(p, flow)


# F2 and F3 both state "Alan is not young", which R1 would derive: the
# question's proof is the first stated fact. Built directly, because the
# reader rejects a fact stated twice.
STATED_TWICE = Theory("T1", tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(
    [Literal("alan", "blue"), Literal("alan", "young", positive=False),
     Literal("alan", "young", positive=False)])),
    (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),),
    (make_question("Q1", Literal("alan", "young", positive=False)),))


def stated_in_fact_order(reasoner) -> bool:
    return reasoner.prove(STATED_TWICE, STATED_TWICE.questions[0]) == [ProofGraph.of(["F2"])]


# Cold and kind each follow from a fact and from each other: kind's
# fragments inside cold's derivation avoid cold, and those asked for at
# the top do not.
POSITIVE_CYCLE = record_to_theory({
    "id": "T1", "facts": [{"id": "F1", "text": "Alan is blue."},
                          {"id": "F2", "text": "Alan is rough."}],
    "rules": [{"id": "R1", "text": "If someone is blue then they are cold."},
              {"id": "R2", "text": "If someone is rough then they are kind."},
              {"id": "R3", "text": "If someone is cold then they are kind."},
              {"id": "R4", "text": "If someone is kind then they are cold."}],
    "questions": [{"id": "Q1", "text": "Alan is cold."}, {"id": "Q2", "text": "Alan is kind."}]})


def fragments_keyed_on_the_path(reasoner) -> bool:
    program = reasoner.GroundProgram(POSITIVE_CYCLE)
    return all(reasoner.prove_literal(program, q.literal)
               == oracles.naive_proofs(POSITIVE_CYCLE, q.literal, 10)
               for q in POSITIVE_CYCLE.questions)


def failure_is_shallowest(t):
    def check(reasoner) -> bool:
        q = t.questions[0]
        return reasoner.prove(t, q) == oracles.naive_proofs(t, q.literal)
    return check


# A rule cycle, R1 -> R2 -> R1, fed by F1; and a chain F1 -> R1 -> R2.
DEPTH_GRAPHS = (ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2"), ("R2", "R1")]),
                ProofGraph.of(["F1", "R1", "R2"], [("F1", "R1"), ("R1", "R2")]))


def depth_counts_rules_on_paths(proofgraph) -> bool:
    return all(proofgraph.proof_depth(p) == oracles.exhaustive_depth(p) == 2
               for p in DEPTH_GRAPHS)


# A fragment table that stores and looks up each entry on its key's atom
# alone. The stack still holds whole keys, so the walk ends on a cycle.
ATOM_KEYED_TABLE = """self._fragment_table = type("AtomKeyed", (dict,), {
            "__contains__": lambda table, key: dict.__contains__(table, key[0]),
            "__getitem__": lambda table, key: dict.__getitem__(table, key[0]),
            "__setitem__": lambda table, key, value: dict.__setitem__(table, key[0], value),
            "get": lambda table, key: dict.get(table, key[0])})()
"""


# A theory memo keyed on the line's theory id, not on the line itself.
ID_KEYED_MEMO = """def _keyed_on_theory_id(read):
    held = {}

    def memo(line):
        theory_id = json_object(line)["id"]
        if theory_id not in held:
            held[theory_id] = read(line)
        return held[theory_id]
    return memo


@_keyed_on_theory_id
"""


def one_id_in_two_files_reads_apart(theory) -> bool:
    """Two files that hold theory T1 with different facts."""
    facts = []
    for text in ("Alan is blue.", "Alan is red."):
        line = json.dumps({"id": "T1", "facts": [{"id": "F1", "text": text}], "rules": [],
                           "questions": []})
        (t,) = theory.read_theories(io.StringIO(line + "\n"))
        facts.append(t.facts[0].text)
    return facts == ["Alan is blue.", "Alan is red."]


def integers_keep_the_high_half(datagen) -> bool:
    """Four draws below 1000 from ``default_rng([0, 1, 2])``, as numpy
    gives them: the second and fourth are the high halves of the words
    the first and third drew."""
    rng = datagen._Rng([0, 1, 2])
    return [rng.integers(1000) for _ in range(4)] == [555, 881, 293, 289]


MUTANTS = {
    "validate_theory_ignores_depth": (
        "theory", "            if measured != q.gold_depth:\n", "            if False:\n",
        stored_depth_is_checked),
    "item_error_omits_its_id": (
        "theory", 'raise TheoryParseError(f"{item_id}: {exc}")', "raise TheoryParseError(str(exc))",
        build_errors_name_the_item),
    "maker_accepts_another_structure": (
        "theory", "    if built != given:\n", "    if False:\n",
        makers_keep_the_given_structure),
    "validate_theory_skips_read_check": (
        "theory", "    read = _read_violations(t)\n", "    read = []\n",
        gold_proofs_are_read_checked),
    "theory_memo_keyed_on_the_id": (
        "theory", "@lru_cache(maxsize=_THEORY_CACHE_SIZE)\n", ID_KEYED_MEMO,
        one_id_in_two_files_reads_apart),
    "negation_adds_no_stratum": (
        "reasoner", "[strata[a] + 1 for a in neg if a in concluded]",
        "[strata[a] for a in neg if a in concluded]",
        negation_cycles_are_rejected),
    "ablation_keeps_the_rule": (
        "reasoner", "            removals.setdefault(rule_id, set()).add(i)\n",
        "            removals.setdefault(rule_id, set())\n",
        removed_rule_stops_firing),
    "derive_ignores_negative_antecedents": (
        "reasoner", "if i in skip or negatives[i] and any(derived[a] for a in negatives[i]):",
        "if i in skip:",
        failed_negation_blocks),
    "naf_supplies_derived_atoms": (
        "reasoner", "for neg in self.negatives for a in neg\n"
        "                                  if not self.flags[a])",
        "for neg in self.negatives for a in neg)",
        naf_supplies_underived_atoms_only),
    "instance_fires_on_any_antecedent": (
        "reasoner", "antecedents <= arrived", "not antecedents.isdisjoint(arrived)",
        rule_fires_on_all_its_antecedents),
    "repair_ties_toward_the_largest_pair": (
        "decoder", "for m, n in pairs if (m, n) not in chosen)\n",
        "for m, n in pairs if (m, n) not in chosen)\n"
        "        leftover.sort(key=lambda c: (c[0], [-x for x in c[1]]))\n",
        repair_ties_toward_the_smallest_pair),
    "verify_flow_ignores_edge_coupling": (
        "decoder", "            if coupled < value / n_count - 1e-9:\n", "            if False:\n",
        flow_off_edges_is_rejected),
    "negated_keeps_the_sign": (
        "theory", "Literal(self.subject, self.predicate, self.obj, not self.positive)",
        "Literal(self.subject, self.predicate, self.obj, self.positive)",
        negation_flips_the_sign),
    "proved_keeps_non_minimal_fragments": (
        "reasoner",
        "        minimal = tuple((f, root) for f, root in fragments if not any(\n"
        "            g != f and g.nodes <= f.nodes and g.edges <= f.edges"
        " for g, _ in fragments))\n",
        "        minimal = fragments\n",
        proofs_are_minimal),
    "closure_slot_never_refreshed": (
        "reasoner", "    if program is None or program.theory is not t:\n",
        "    if program is None:\n",
        each_theory_gets_its_program),
    "failing_negation_counts_as_two": (
        "reasoner", "depth = 1.0 if any(flags[a] for a in neg)",
        "depth = 2.0 if any(flags[a] for a in neg)",
        failure_is_shallowest(FAILING_NEGATION)),
    "failure_depths_one_pass": (
        "reasoner", "        while changed:\n            changed = False\n            for head,",
        "        if changed:\n            changed = False\n            for head,",
        failure_is_shallowest(CHAINS_LISTED_BACKWARDS)),
    "stated_by_reversed": (
        "reasoner", "[]).append(f.id)", "[]).insert(0, f.id)",
        stated_in_fact_order),
    "fragment_table_keyed_on_the_atom": (
        "reasoner", "self._fragment_table: dict[tuple[int, frozenset[int]], "
        "tuple[_Fragment, ...]] = {}\n",
        ATOM_KEYED_TABLE, fragments_keyed_on_the_path),
    "proof_depth_without_cycle_fallback": (
        "proofgraph", "    if len(ready) < len(is_rule):\n", "    if False:\n",
        depth_counts_rules_on_paths),
    "integers_draw_a_fresh_word": (
        "datagen", "scaled = self._next32() * span", "scaled = (self._next64() & _M32) * span",
        integers_keep_the_high_half),
    "proof_depth_without_own_rule_flag": (
        "proofgraph", "ending_at[node] = ending_at[node] + is_rule[node]",
        "ending_at[node] = ending_at[node]",
        depth_counts_rules_on_paths),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_check(name):
    module, text, replacement, check = MUTANTS[name]
    assert check(load(module))
    assert not check(load(module, text, replacement))
