"""Independent reference implementations used only as test oracles.

Nothing here shares code with the library's own algorithms: the closure
oracle runs an alternating fixpoint with naive whole-program passes, the
stratification oracle searches the ground dependency graph for a negative
edge inside a cycle, the failure-selection oracle recurses over paths that
never revisit an atom, the proof oracle enumerates every path-restricted
derivation from scratch for each literal, the decode oracle enumerates every edge assignment,
the depth oracle enumerates every simple path, the layout oracle parses
each sentence id, the feature oracle tokenizes both texts of a cell, the
proof-check oracle visits every node of a proof on each pass and tests
each antecedent against each incoming edge's source, and the loss oracle
is the mean logistic loss in its log-sum-exp form, which the scorer's
gradient is checked against.
"""

from __future__ import annotations

import functools
import itertools
import re

from ruleproofs.potentials import FeatureVector
from ruleproofs.proofgraph import NAF, ProofGraph, node_kind, validate_structure
from ruleproofs.theory import Literal, Theory


def _entities(t: Theory) -> list[str]:
    found = set()
    literals = [f.literal for f in t.facts] + [q.literal for q in t.questions]
    for r in t.rules:
        literals.extend(r.antecedents)
        literals.append(r.consequent)
    for lit in literals:
        if not lit.is_variable():
            found.add(lit.subject)
        if lit.obj is not None:
            found.add(lit.obj)
    return sorted(found)


def _instances(t: Theory, entities=None):
    """(rule index, binding, antecedents, consequent) for every ground
    instance, binding variables over ``entities`` (default: t's own)."""
    out = []
    entities = _entities(t) if entities is None else entities
    for index, r in enumerate(t.rules):
        if r.variable() is None:
            out.append((index, None, tuple(r.antecedents), r.consequent))
        else:
            for e in entities:
                out.append((index, e, tuple(a.bind(e) for a in r.antecedents),
                            r.consequent.bind(e)))
    return out


def naive_closure(t: Theory, entities=None) -> set:
    """Alternating fixpoint over naive full-program passes.

    An over-approximation and an under-approximation of the derivable
    atoms are refined against each other until they agree, which they do
    for stratified programs. Variable rules are grounded over ``entities``
    when given, else over t's own.
    """
    instances = _instances(t, entities)
    base = {f.literal.atom() for f in t.facts if f.literal.positive}

    def fixpoint(negatives_fail_against: set) -> set:
        derived = set(base)
        while True:
            added = False
            for _index, _binding, antecedents, consequent in instances:
                if consequent.atom() in derived:
                    continue
                ok = True
                for ant in antecedents:
                    if ant.positive and ant.atom() not in derived:
                        ok = False
                    if not ant.positive and ant.atom() in negatives_fail_against:
                        ok = False
                if ok:
                    derived.add(consequent.atom())
                    added = True
            if not added:
                return derived

    over = fixpoint(set())  # every negation assumed to hold
    while True:
        under = fixpoint(over)
        new_over = fixpoint(under)
        if new_over == over:
            assert under == over, "oracle did not converge (non-stratified input?)"
            return over
        over = new_over


def negation_cycle(t: Theory):
    """A negative dependency (atom, head) such that the head reaches the
    atom again through the ground dependency graph, or None when the
    theory is stratified."""
    successors: dict = {}
    negative = []
    for _index, _binding, antecedents, consequent in _instances(t):
        for ant in antecedents:
            successors.setdefault(ant.atom(), set()).add(consequent.atom())
            if not ant.positive:
                negative.append((ant.atom(), consequent.atom()))
    for atom, head in negative:
        reached = {head}
        frontier = [head]
        while frontier:
            for nxt in successors.get(frontier.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        if atom in reached:
            return atom, head
    return None


def naive_failed_instances(t: Theory, atoms) -> dict:
    """For each of ``atoms``, the concluding instance with the shallowest
    failure, as (rule index, binding, failing antecedents), or None when
    the atom is derivable or nothing concludes it.

    Failure depth is recursive over paths: 0 for an atom nothing
    concludes, an instance one deeper than its shallowest failing
    antecedent (0 for a failing negative one), an atom the depth of its
    shallowest concluder, and no path may revisit an atom. Ties break on
    rule index, then binding. The instances and the closure are computed
    once for all atoms, and an atom's depth is cached per set of atoms
    already on its path, which is all it depends on.
    """
    derived = naive_closure(t)
    concluders: dict = {}
    for inst in _instances(t):
        concluders.setdefault(inst[3].atom(), []).append(inst)

    def failing(antecedents):
        return tuple(a for a in antecedents if (a.atom() in derived) != a.positive)

    @functools.cache
    def atom_depth(a, visiting):
        if a in visiting:
            return float("inf")
        if a not in concluders:
            return 0
        return min(instance_depth(inst, visiting | {a}) for inst in concluders[a])

    def instance_depth(inst, visiting):
        branches = [atom_depth(a.atom(), visiting) if a.positive else 0 for a in failing(inst[2])]
        return 1 + min(branches) if branches else float("inf")

    def select(atom):
        if atom in derived or atom not in concluders:
            return None
        index, binding, antecedents, _ = min(concluders[atom], key=lambda inst: (
            instance_depth(inst, frozenset([atom])), inst[0], inst[1] or ""))
        return index, binding, failing(antecedents)

    return {atom: select(atom) for atom in atoms}


def naive_answer(t: Theory, lit: Literal) -> bool:
    derived = naive_closure(t)
    if lit.positive:
        return lit.atom() in derived
    return lit.atom() not in derived or any(f.literal == lit for f in t.facts)


@functools.lru_cache(maxsize=1)
def _proof_basis(t: Theory):
    """What the proofs of a theory read, computed once for the many
    literals a test proves on it: the closure, the first fact stating each
    signed atom, each instance as (rule index, binding, rule id, head,
    positive antecedents, negative antecedents, whether its body holds),
    and the failure selection of every concluded atom."""
    derived = naive_closure(t)
    stated: dict = {}
    for f in t.facts:
        stated.setdefault((f.literal.atom(), f.literal.positive), f.id)
    rows = []
    for index, binding, antecedents, consequent in _instances(t):
        positives = tuple(a.atom() for a in antecedents if a.positive)
        negatives = tuple(a.atom() for a in antecedents if not a.positive)
        fires = derived.issuperset(positives) and derived.isdisjoint(negatives)
        rows.append((index, binding, t.rules[index].id, consequent.atom(),
                     positives, negatives, fires))
    return derived, stated, rows, naive_failed_instances(t, {row[3] for row in rows})


def naive_proofs(t: Theory, lit: Literal, max_proofs: int = 10) -> list:
    """The proofs of ``lit`` by enumerating derivations from scratch.

    A negative literal stated by a fact is that fact alone. A literal whose
    atom is derivable gets the minimal derivation graphs of the atom: the
    first positive fact stating it, or an instance whose body holds, whose
    positive antecedents each have a derivation that revisits no atom on
    the path from the root, and whose negative ones are each shown by the
    first fact stating the negation, else by NAF. Each atom keeps at most
    256 graphs, cut in grounding order before the minimality filter, as
    the library's enumeration does; graphs are sorted canonically and the
    first ``max_proofs`` kept. Any other literal gets the failure
    demonstration around the instance ``naive_failed_instances`` picks.
    """
    cap = 256
    derived, stated, rows, failed = _proof_basis(t)

    def leaf(node):
        return frozenset([node]), frozenset(), node

    def negative_support(atom):
        return leaf(stated.get((atom, False), NAF))

    def graphs(atom, path):
        found = [leaf(stated[atom, True])] if (atom, True) in stated else []
        for _index, _binding, rule_id, head, positives, negatives, fires in rows:
            if len(found) >= cap:
                break
            if head != atom or not fires or any(b in path for b in positives):
                continue
            choices = [graphs(b, path | {b}) for b in positives]
            choices += [[negative_support(b)] for b in negatives]
            for combo in itertools.product(*choices):
                nodes = {rule_id}.union(*(g[0] for g in combo))
                edges = {(g[2], rule_id) for g in combo}.union(*(g[1] for g in combo))
                found.append((frozenset(nodes), frozenset(edges), rule_id))
                if len(found) >= cap:
                    break
        return sorted(dict.fromkeys(found), key=lambda g: (sorted(g[0]), sorted(g[1])))

    def minimal(atom):
        found = graphs(atom, frozenset([atom]))
        return [g for g in found if not any(
            (h[0], h[1]) != (g[0], g[1]) and h[0] <= g[0] and h[1] <= g[1] for h in found)]

    atom = lit.atom()
    if not lit.positive and (atom, False) in stated:
        return [ProofGraph.of([stated[atom, False]])]
    if atom in derived:
        proofs = sorted((ProofGraph.of(g[0], g[1]) for g in minimal(atom)),
                        key=ProofGraph.canonical_key)
        return proofs[:max_proofs]
    picked = failed.get(atom)
    if picked is None:
        return [ProofGraph.of([NAF])]
    _index, _binding, rule_id, _head, positives, negatives, _fires = next(
        row for row in rows if row[:2] == picked[:2])
    nodes, edges = {rule_id, NAF}, {(NAF, rule_id)}
    shown = [minimal(b)[0] for b in positives if b in derived] \
        + [negative_support(b) for b in negatives if b not in derived]
    for g in shown:
        nodes |= g[0]
        edges |= g[1] | {(g[2], rule_id)}
    return [ProofGraph.of(nodes, edges)]


def naive_check_proof(t: Theory, q, p: ProofGraph) -> bool:
    """Whether ``p`` is the proof ``naive_proofs`` would accept for
    question ``q``, checked as ``reasoner.check_proof`` specifies but over
    the oracle's closure, instances and failure selection.

    A stated negative question needs its first stating fact alone. Else
    the proof's rules fire against what its nodes supply, as signed atoms:
    a fact its literal, NAF each negative antecedent whose atom is not
    derived. Every pass visits every node and fires an instance when each
    of its antecedents is supplied by some incoming edge's source, until a
    pass fires nothing. A derivable atom must be supplied by some node. A
    failure shows the picked instance's rule with an edge from NAF, no
    out-edge, and each satisfiable antecedent supplied over an edge.
    Every other edge must carry an antecedent of a fired instance of the
    rule it enters.
    """
    if validate_structure(p):
        return False
    unknown = sorted(p.nodes - {f.id for f in t.facts} - {r.id for r in t.rules} - {NAF})
    if unknown:
        raise KeyError(f"unknown node id {unknown[0]!r}")
    derived, stated, rows, failed = _proof_basis(t)
    atom = q.literal.atom()
    if not q.literal.positive and (atom, False) in stated:
        return p.nodes == {stated[atom, False]} and not p.edges

    def antecedents(row):
        return [(b, True) for b in row[4]] + [(b, False) for b in row[5]]

    supplies = {f.id: {(f.literal.atom(), f.literal.positive)} for f in t.facts}
    supplies[NAF] = {(b, False) for row in rows for b in row[5] if b not in derived}
    supplied = {node: set(supplies.get(node, ())) for node in p.nodes}
    incoming = {node: [s for s, d in p.edges if d == node] for node in p.nodes}
    needs: dict = {}
    changed = True
    while changed:
        changed = False
        for node in p.nodes:
            for row in rows:
                if row[2] != node or (row[3], True) in supplied[node]:
                    continue
                if all(any(a in supplied[s] for s in incoming[node]) for a in antecedents(row)):
                    supplied[node].add((row[3], True))
                    needs.setdefault(node, set()).update(antecedents(row))
                    changed = True

    if atom in derived:
        exempt = None
        if not any((atom, True) in signed for signed in supplied.values()):
            return False
    else:
        picked = failed.get(atom)
        if picked is None:
            return p.nodes == {NAF} and not p.edges
        row = next(row for row in rows if row[:2] == picked[:2])
        rule_id = row[2]
        exempt = (NAF, rule_id)
        if exempt not in p.edges or any(s == rule_id for s, _ in p.edges):
            return False
        failing = {(a.atom(), a.positive) for a in picked[2]}
        needs[rule_id] = {a for a in antecedents(row) if a not in failing}
        if not all(any(a in supplied[s] for s in incoming[rule_id]) for a in needs[rule_id]):
            return False
    return all((s, d) == exempt or any(a in supplied[s] for a in needs.get(d, ()))
               for s, d in p.edges)


def brute_force_decode(node_prob, edge_prob, num_facts):
    """Exhaustive maximum over connected assignments; None when infeasible.

    Returns (objective, edge index set) under the tie-break of fewest
    edges, then lexicographic pair order. Objectives within 1e-9 are the
    same real number up to float summation noise (the sums differ only
    in accumulation order), so they count as tied before the tie-break.
    """
    size = len(node_prob)
    selected = [i for i, p in enumerate(node_prob) if p >= 0.5]
    if not selected:
        best_p = max(node_prob)
        selected = [next(i for i, p in enumerate(node_prob) if p == best_p)]
    rules = [n for n in selected if num_facts <= n < size - 1]
    pairs = [(m, n) for n in rules for m in selected if m != n]

    best = None
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        chosen = {pair for pair, b in zip(pairs, bits) if b}
        if not _connected(selected, chosen):
            continue
        objective = sum(
            edge_prob[m][n] if (m, n) in chosen else 1.0 - edge_prob[m][n]
            for m, n in pairs
        )
        key = (len(chosen), tuple(sorted(chosen)))
        if best is None or objective > best[0] + 1e-9 or (
            objective > best[0] - 1e-9 and key < best[2]
        ):
            best = (objective, chosen, key)
    if best is None:
        return None
    return best[0], best[1]


def _connected(selected, chosen) -> bool:
    if not selected:
        return False
    neighbors = {n: set() for n in selected}
    for m, n in chosen:
        neighbors[m].add(n)
        neighbors[n].add(m)
    seen = {selected[0]}
    queue = [selected[0]]
    while queue:
        for nxt in neighbors[queue.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(selected)


def exhaustive_depth(p: ProofGraph) -> int:
    """Longest-path rule count by enumerating every simple path."""
    targets = {}
    for s, d in p.edges:
        targets.setdefault(s, []).append(d)

    def walk(node, seen):
        best = 1 if node_kind(node) == "rule" else 0
        for nxt in targets.get(node, ()):
            if nxt not in seen:
                best = max(best, (1 if node_kind(node) == "rule" else 0) + walk(nxt, seen | {nxt}))
        return best

    return max(walk(n, {n}) for n in p.nodes)


def parsed_sentence_index(t: Theory, sentence_id: str) -> int:
    """Layout position by parsing the id: "F<i>" is fact i, "R<i>" rule i
    after the facts, "NAF" the last slot. Raises KeyError for every other
    id, including "F0", "F01", "Fx" and an index past the theory's end."""
    try:
        kind = node_kind(sentence_id)
    except ValueError:
        raise KeyError(sentence_id) from None
    if kind == "naf":
        return t.num_sentences
    idx = int(sentence_id[1:])
    if kind == "fact" and idx <= len(t.facts):
        return idx - 1
    if kind == "rule" and idx <= len(t.rules):
        return len(t.facts) + idx - 1
    raise KeyError(sentence_id)


def cell_features(t: Theory, src: str, dst: str) -> FeatureVector:
    """The lexical features of the cell src -> dst from its two sentence
    texts, each tokenized here: lower-cased runs of letters and digits,
    with no text (and no tokens) for NAF."""
    texts = {item.id: item.text for item in (*t.facts, *t.rules)}

    def words(sentence_id):
        return re.findall(r"[^\W_]+", texts[sentence_id].lower()) if sentence_id != "NAF" else []

    a, b = words(src), words(dst)
    pairs_a, pairs_b = set(zip(a, a[1:])), set(zip(b, b[1:]))

    def overlap(x, y):
        return len(x & y) / len(x | y) if x | y else 0.0

    return FeatureVector(
        unigram_jaccard=overlap(set(a), set(b)),
        bigram_jaccard=overlap(pairs_a, pairs_b),
        normalized_length_difference=abs(len(a) - len(b)) / max(len(a), len(b), 1),
        source_has_negation="not" in a,
        target_has_negation="not" in b,
        fact_to_rule=src.startswith("F"),
        rule_to_rule=src.startswith("R"),
        naf_to_rule=src == "NAF",
    )


def logistic_loss(weights, X, y) -> float:
    """Mean logistic loss of ``X @ weights[:-1] + weights[-1]`` against the
    0/1 labels ``y``: the mean of log(1 + e^z) - y z."""
    import numpy as np
    z = X @ weights[:-1] + weights[-1]
    return float(np.mean(np.logaddexp(0.0, z) - y * z))
