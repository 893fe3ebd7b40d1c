"""Forward-chaining reasoner with negation as failure.

Answers questions under the closed-world assumption, extracts minimal
proof graphs for derivable statements, builds failure demonstrations for
underivable ones, and identifies the sentences whose removal flips an
answer.

Each theory is compiled once into a ``GroundProgram``: rules are grounded
over the theory's entities, atoms are interned as integer ids, and atoms
are partitioned into strata so that no atom depends negatively on its own
stratum (a theory with a dependency cycle through negation is rejected).
The program also indexes instances by head and facts by literal, and every
entry point reads them from it instead of grounding again. A derivation
runs stratum by stratum; inside a stratum each instance counts its
missing positive antecedents and fires when the count reaches zero
(Dowling & Gallier 1984), so every atom is derived and propagated at most
once. A negative antecedent holds when its atom is absent from the strata
below. Critical sentences reuse the same program: removing a sentence
drops its fact, or its rule's instances, plus the instances bound to an
entity that no other sentence or question mentions. A stratification of
the full program is valid for every such subprogram.

Proof conventions, applied in this order for a question literal q:

* q negative and an explicit fact states q: single fact node.
* the positive form of q is derivable: one derivation graph per distinct
  minimal derivation (facts feed rules, rule outputs feed rules, negative
  antecedents satisfied by failure feed from one collapsed NAF node).
* no rule concludes the positive form: single NAF node.
* otherwise: failure demonstration showing the concluding rule instance
  with the shallowest failure, derivations of its satisfiable
  antecedents, and a NAF node covering the failing branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .proofgraph import NAF, ProofGraph, validate_structure
from .theory import Atom, Literal, Question, Theory

DEFAULT_MAX_PROOFS = 10

# Per-atom cap on enumerated support fragments; keeps pathological
# theories from exploding the proof search. Generated data stays far
# below it.
_FRAGMENT_CAP = 256
_UNREACHABLE = float("inf")


class NonStratifiedTheory(ValueError):
    """A dependency cycle runs through a negative antecedent."""


@dataclass(frozen=True)
class GroundInstance:
    """One rule with its variable (if any) bound to a concrete entity."""

    rule_id: str
    rule_index: int
    binding: Optional[str]
    antecedents: tuple[Literal, ...]
    consequent: Literal


@dataclass(frozen=True)
class Closure:
    """Least fixpoint of rule application over the theory's facts."""

    derived: frozenset[Atom]
    derivation_index: dict[Atom, tuple[GroundInstance, ...]]
    program: GroundProgram


def ground_instances(t: Theory) -> list[GroundInstance]:
    entities = t.entities()
    instances = []
    for index, rule in enumerate(t.rules):
        if rule.is_variable_rule():
            for entity in entities:
                instances.append(
                    GroundInstance(
                        rule.id,
                        index,
                        entity,
                        tuple(a.bind(entity) for a in rule.antecedents),
                        rule.consequent.bind(entity),
                    )
                )
        else:
            instances.append(
                GroundInstance(rule.id, index, None, rule.antecedents, rule.consequent)
            )
    return instances


def _stratify(atoms: list[Atom], heads: list[int], positives: list[tuple[int, ...]],
              negatives: list[tuple[int, ...]]) -> list[int]:
    """Stratum per atom id, so negative dependencies always point strictly down.

    Runs Tarjan's strongly connected components on the ground dependency
    graph (antecedent to head); a negative edge inside a component means
    the theory is not stratified. Tarjan emits a component after every
    component it reaches, so walking the emission order backwards visits
    each component after all of its predecessors, and its stratum (the
    largest count of negative edges on any path into it) is final.
    """
    edges: list[list[tuple[int, int]]] = [[] for _ in atoms]
    for head, pos, neg in zip(heads, positives, negatives):
        for a in pos:
            edges[a].append((head, 0))
        for a in neg:
            edges[a].append((head, 1))

    order = [-1] * len(atoms)
    low = [0] * len(atoms)
    component = [-1] * len(atoms)
    components: list[list[int]] = []
    stack: list[int] = []
    counter = 0
    for root in range(len(atoms)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            node, position = work[-1]
            if position < len(edges[node]):
                work[-1] = (node, position + 1)
                successor = edges[node][position][0]
                if order[successor] < 0:
                    order[successor] = low[successor] = counter
                    counter += 1
                    stack.append(successor)
                    work.append((successor, 0))
                elif component[successor] < 0:  # still on the stack
                    low[node] = min(low[node], order[successor])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                members = []
                while not members or members[-1] != node:
                    members.append(stack.pop())
                    component[members[-1]] = len(components)
                components.append(members)

    level = [0] * len(components)
    for comp in range(len(components) - 1, -1, -1):
        for src in components[comp]:
            for dst, negative in edges[src]:
                if component[dst] != comp:
                    level[component[dst]] = max(level[component[dst]], level[comp] + negative)
                elif negative:
                    raise NonStratifiedTheory(
                        f"negation cycle through atom {atoms[src]} -> {atoms[dst]}")
    return [level[comp] for comp in component]


class GroundProgram:
    """A theory grounded and stratified once, shared by every derivation.

    Atoms are interned as ids. ``levels`` holds instance indices by the
    stratum of their head; ``watchers[a]`` lists the instances of atom
    ``a``'s stratum with ``a`` among their positive antecedents; and
    ``removals[s]`` holds the instances that vanish with sentence ``s``.
    """

    def __init__(self, t: Theory):
        self.theory = t
        self.instances = ground_instances(t)
        self.atom_ids: dict[Atom, int] = {}
        self.fact_by_literal: dict[Literal, str] = {}
        for f in t.facts:
            self.fact_by_literal.setdefault(f.literal, f.id)
            self._intern(f.literal.atom())
        self.by_head: dict[Atom, list[GroundInstance]] = {}
        self.by_rule: dict[str, list[GroundInstance]] = {}
        self.heads, self.positives, self.negatives = [], [], []
        for inst in self.instances:
            self.by_head.setdefault(inst.consequent.atom(), []).append(inst)
            self.by_rule.setdefault(inst.rule_id, []).append(inst)
            self.heads.append(self._intern(inst.consequent.atom()))
            self.positives.append(tuple(
                self._intern(a.atom()) for a in inst.antecedents if a.positive))
            self.negatives.append(tuple(
                self._intern(a.atom()) for a in inst.antecedents if not a.positive))
        strata = _stratify(list(self.atom_ids), self.heads, self.positives, self.negatives)
        self.levels: list[list[int]] = [[] for _ in range(max(strata, default=-1) + 1)]
        self.watchers: list[list[int]] = [[] for _ in strata]
        for i, head in enumerate(self.heads):
            self.levels[strata[head]].append(i)
            for a in self.positives[i]:
                if strata[a] == strata[head]:
                    self.watchers[a].append(i)

    @cached_property
    def removals(self) -> dict[str, set[int]]:
        """Per sentence id, the instances gone from the theory without it:
        the rule's own, and those bound to an entity only it mentions."""
        t = self.theory
        owners: dict[str, set[Optional[str]]] = {}
        mentions = [(f.id, [f.literal]) for f in t.facts] \
            + [(r.id, [*r.antecedents, r.consequent]) for r in t.rules] \
            + [(None, [q.literal for q in t.questions])]
        for owner, literals in mentions:
            for lit in literals:
                for entity in lit.entities():
                    owners.setdefault(entity, set()).add(owner)
        removals: dict[str, set[int]] = {}
        for i, inst in enumerate(self.instances):
            removals.setdefault(inst.rule_id, set()).add(i)
            sole = owners[inst.binding] if inst.binding is not None else ()
            if len(sole) == 1 and None not in sole:
                removals.setdefault(next(iter(sole)), set()).add(i)
        return removals

    def _intern(self, atom: Atom) -> int:
        return self.atom_ids.setdefault(atom, len(self.atom_ids))

    def derive(self, removed: Optional[str] = None) -> tuple[bytearray, list[int]]:
        """Derived flags by atom id and the indices of the instances that
        fire, for the theory without sentence ``removed`` (if given)."""
        derived = bytearray(len(self.atom_ids))
        for f in self.theory.facts:
            if f.literal.positive and f.id != removed:
                derived[self.atom_ids[f.literal.atom()]] = 1
        skip = self.removals.get(removed, ()) if removed is not None else ()
        heads, positives, negatives, watchers = \
            self.heads, self.positives, self.negatives, self.watchers
        missing = [0] * len(heads)
        fired = []
        for level in self.levels:
            ready = []
            for i in level:
                if i in skip or any(derived[a] for a in negatives[i]):
                    continue  # its count stays at zero and only falls, so it never fires
                count = 0
                for a in positives[i]:
                    if not derived[a]:
                        count += 1
                missing[i] = count
                if not count:
                    ready.append(i)
            while ready:
                i = ready.pop()
                fired.append(i)
                head = heads[i]
                if derived[head]:
                    continue
                derived[head] = 1
                for j in watchers[head]:
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
        return derived, fired

    def holds(self, lit: Literal, derived: bytearray, removed: Optional[str] = None) -> bool:
        """Closed-world truth of ``lit`` against flags from ``derive(removed)``."""
        atom = self.atom_ids.get(lit.atom())
        present = atom is not None and derived[atom]
        if lit.positive:
            return bool(present)
        return not present or any(
            f.literal == lit and f.id != removed for f in self.theory.facts)


def closure(t: Theory) -> Closure:
    """Least fixpoint of the theory's ground program."""
    program = GroundProgram(t)
    derived, fired = program.derive()
    index: dict[Atom, list[GroundInstance]] = {}
    for i in sorted(fired):
        inst = program.instances[i]
        index.setdefault(inst.consequent.atom(), []).append(inst)
    return Closure(
        frozenset(atom for atom, a in program.atom_ids.items() if derived[a]),
        {atom: tuple(entries) for atom, entries in index.items()},
        program,
    )


def holds_under_cwa(t: Theory, c: Closure, lit: Literal) -> bool:
    atom = lit.atom()
    if lit.positive:
        return atom in c.derived
    return atom not in c.derived or lit in c.program.fact_by_literal


def answer_question(t: Theory, q: Question) -> bool:
    """Truth of the question literal under the closed-world assumption."""
    return holds_under_cwa(t, closure(t), q.literal)


# ---------------------------------------------------------------------------
# Proof extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Fragment:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    root: str

    def key(self):
        return (sorted(self.nodes), sorted(self.edges))


class _ProofSearch:
    def __init__(self, c: Closure):
        self.closure = c
        self.fact_by_literal = c.program.fact_by_literal

    def negative_support(self, ant: Literal) -> _Fragment:
        """Support for a satisfied negative antecedent: a stated negative
        fact when one exists, the collapsed NAF node otherwise."""
        fact_id = self.fact_by_literal.get(ant)
        if fact_id is not None:
            return _Fragment(frozenset([fact_id]), frozenset(), fact_id)
        return _Fragment(frozenset([NAF]), frozenset(), NAF)

    def fragments(self, atom: Atom, path: frozenset[Atom]) -> list[_Fragment]:
        """All derivation fragments for a derivable atom, avoiding any atom
        already under derivation on the current path."""
        options: list[_Fragment] = []
        fact_id = self.fact_by_literal.get(Literal(*atom))
        if fact_id is not None:
            options.append(_Fragment(frozenset([fact_id]), frozenset(), fact_id))
        for inst in self.closure.derivation_index.get(atom, ()):
            choice_lists: list[list[_Fragment]] = []
            feasible = True
            for ant in inst.antecedents:
                if ant.positive:
                    if ant.atom() in path:
                        feasible = False
                        break
                    subs = self.fragments(ant.atom(), path | {ant.atom()})
                    if not subs:
                        feasible = False
                        break
                    choice_lists.append(subs)
                else:
                    choice_lists.append([self.negative_support(ant)])
            if not feasible:
                continue
            for combo in itertools.product(*choice_lists):
                nodes = frozenset([inst.rule_id]).union(*(f.nodes for f in combo)) \
                    if combo else frozenset([inst.rule_id])
                edges = frozenset((f.root, inst.rule_id) for f in combo).union(
                    *(f.edges for f in combo)) if combo else frozenset()
                options.append(_Fragment(nodes, edges, inst.rule_id))
                if len(options) >= _FRAGMENT_CAP:
                    break
            if len(options) >= _FRAGMENT_CAP:
                break
        unique = {(f.nodes, f.edges, f.root): f for f in options}
        return sorted(unique.values(), key=_Fragment.key)

    def best_fragment(self, atom: Atom) -> _Fragment:
        candidates = _minimal(self.fragments(atom, frozenset([atom])))
        return candidates[0]


def _minimal(fragments: list[_Fragment]) -> list[_Fragment]:
    """Drop any fragment that properly contains another (nodes and edges)."""
    return [f for f in fragments if not any(
        (g.nodes, g.edges) != (f.nodes, f.edges) and g.nodes <= f.nodes and g.edges <= f.edges
        for g in fragments)]


def _fails(c: Closure, ant: Literal) -> bool:
    """Whether the antecedent is false in the closure."""
    return (ant.atom() in c.derived) != ant.positive


def _atom_failure_depth(c: Closure, atom: Atom, visiting: frozenset[Atom]) -> float:
    """Failure depth of an underivable atom: 0 when no rule concludes it,
    else the depth of its shallowest concluding instance."""
    if atom in visiting:
        return _UNREACHABLE
    concluders = c.program.by_head.get(atom)
    if not concluders:
        return 0.0
    return min(_instance_failure_depth(c, inst, visiting | {atom}) for inst in concluders)


def _instance_failure_depth(c: Closure, inst: GroundInstance, visiting: frozenset[Atom]) -> float:
    """One level above the shallowest failing antecedent of the instance."""
    branch_depths = [_atom_failure_depth(c, ant.atom(), visiting) if ant.positive else 0.0
                     for ant in inst.antecedents if _fails(c, ant)]
    return 1.0 + min(branch_depths) if branch_depths else _UNREACHABLE


def select_failed_instance(t: Theory, c: Closure, atom: Atom):
    """Pick the concluding instance with the shallowest failure for an
    underivable atom; ties break on rule index, then binding. Returns
    (instance, failing antecedent set) or None when nothing concludes it."""
    concluders = None if atom in c.derived else c.program.by_head.get(atom)
    if not concluders:
        return None
    chosen = min(concluders, key=lambda inst: (
        _instance_failure_depth(c, inst, frozenset([atom])), inst.rule_index, inst.binding or ""))
    return chosen, tuple(ant for ant in chosen.antecedents if _fails(c, ant))


def _failed_proof(t: Theory, c: Closure, atom: Atom) -> ProofGraph:
    selection = select_failed_instance(t, c, atom)
    if selection is None:
        return ProofGraph.of([NAF])
    inst, failing = selection
    failing_set = set(failing)
    search = _ProofSearch(c)
    nodes = {inst.rule_id}
    edges = set()
    for ant in inst.antecedents:
        if ant in failing_set:
            continue
        if ant.positive:
            fragment = search.best_fragment(ant.atom())
        else:
            fragment = search.negative_support(ant)
        nodes |= fragment.nodes
        edges |= fragment.edges
        edges.add((fragment.root, inst.rule_id))
    if failing_set:
        nodes.add(NAF)
        edges.add((NAF, inst.rule_id))
    return ProofGraph.of(nodes, edges)


def prove_literal(t: Theory, c: Closure, lit: Literal,
                  max_proofs: int = DEFAULT_MAX_PROOFS) -> list[ProofGraph]:
    if max_proofs < 1:
        raise ValueError("max_proofs must be at least 1")
    atom = lit.atom()

    fact_id = None if lit.positive else c.program.fact_by_literal.get(lit)
    if fact_id is not None:
        return [ProofGraph.of([fact_id])]

    if atom in c.derived:
        search = _ProofSearch(c)
        fragments = _minimal(search.fragments(atom, frozenset([atom])))
        proofs = [ProofGraph.of(f.nodes, f.edges) for f in fragments]
        proofs.sort(key=ProofGraph.canonical_key)
        return proofs[:max_proofs]

    return [_failed_proof(t, c, atom)]


def prove(t: Theory, q: Question, max_proofs: int = DEFAULT_MAX_PROOFS) -> list[ProofGraph]:
    """Up to ``max_proofs`` distinct minimal proofs, deterministically ordered."""
    return prove_literal(t, closure(t), q.literal, max_proofs)


def critical_sentences(t: Theory) -> list[set[str]]:
    """For each question of t, in order, the ids of the facts/rules whose
    individual removal flips its answer.

    The theory is compiled once; each single-sentence ablation is derived
    by filtering that program, and every question is answered against it.
    """
    if not t.questions:
        return []
    c = closure(t)
    base = [holds_under_cwa(t, c, q.literal) for q in t.questions]
    critical: list[set[str]] = [set() for _ in t.questions]
    for sentence_id in t.sentence_ids():
        derived, _fired = c.program.derive(sentence_id)
        for q, answer, found in zip(t.questions, base, critical):
            if c.program.holds(q.literal, derived, sentence_id) != answer:
                found.add(sentence_id)
    return critical


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

def check_proof(t: Theory, q: Question, p: ProofGraph) -> bool:
    """True iff p is the correct derivation (or failure demonstration) for q.

    Rule nodes must have every antecedent supplied over an incoming edge,
    every edge must carry some antecedent, and the graph must conclude the
    question's literal (or match the declared failed-proof convention when
    the statement is established by failure).
    """
    if validate_structure(p):
        return False
    fact_map = t.fact_map()
    rule_map = t.rule_map()
    for node in p.nodes:
        if node != NAF and node not in fact_map and node not in rule_map:
            raise KeyError(f"unknown node id {node!r}")

    c = closure(t)
    atom = q.literal.atom()

    lookup = None if q.literal.positive else c.program.fact_by_literal.get(q.literal)
    if lookup is not None:
        return p.nodes == frozenset([lookup]) and not p.edges

    if atom in c.derived:
        return _check_derivation(t, c, atom, p)
    return _check_failure(t, c, atom, p)


def _simulate(t: Theory, c: Closure, p: ProofGraph, blocked_rules: frozenset[str] = frozenset()):
    """Fire the proof's rules against its own fact nodes, respecting edges.

    Returns (literals supplied per node, fired instances per rule node) at
    fixpoint. A rule may fire under several bindings; an antecedent is
    satisfied when any incoming edge supplies it, with the NAF node
    standing in for negative antecedents whose atom the full theory
    cannot derive.
    """
    fact_map = t.fact_map()
    supplied: dict[str, set[Literal]] = {
        node: ({fact_map[node].literal} if node in fact_map else set()) for node in p.nodes
    }
    incoming: dict[str, list[str]] = {n: [] for n in p.nodes}
    for s, d in p.edges:
        incoming[d].append(s)

    fired: dict[str, list[GroundInstance]] = {}
    changed = True
    while changed:
        changed = False
        for node in p.nodes:
            if node in blocked_rules:
                continue
            for inst in c.program.by_rule.get(node, ()):
                if inst.consequent in supplied[node]:
                    continue
                if all(_ant_supported(a, incoming[node], supplied, c) for a in inst.antecedents):
                    supplied[node].add(inst.consequent)
                    fired.setdefault(node, []).append(inst)
                    changed = True
    return supplied, fired


def _ant_supported(ant: Literal, sources: list[str],
                   supplied: dict[str, set[Literal]], c: Closure) -> bool:
    if any(src != NAF and ant in supplied[src] for src in sources):
        return True
    return not ant.positive and NAF in sources and ant.atom() not in c.derived


def _edge_carries(src: str, ants: Iterable[Literal],
                  supplied: dict[str, set[Literal]], c: Closure) -> bool:
    """Whether the source node supplies at least one of these antecedents."""
    if src == NAF:
        return any(not a.positive and a.atom() not in c.derived for a in ants)
    return any(a in supplied[src] for a in ants)


def _used_edges(p: ProofGraph, supplied, fired, c: Closure) -> set[tuple[str, str]]:
    return {(src, dst) for src, dst in p.edges if any(
        _edge_carries(src, inst.antecedents, supplied, c) for inst in fired.get(dst, ()))}


def _check_derivation(t: Theory, c: Closure, atom: Atom, p: ProofGraph) -> bool:
    supplied, fired = _simulate(t, c, p)
    goal = Literal(*atom)
    if not any(goal in lits for lits in supplied.values()):
        return False
    rule_map = t.rule_map()
    if any(node in rule_map and node not in fired for node in p.nodes):
        return False
    return _used_edges(p, supplied, fired, c) == set(p.edges)


def _check_failure(t: Theory, c: Closure, atom: Atom, p: ProofGraph) -> bool:
    selection = select_failed_instance(t, c, atom)
    if selection is None:
        return p.nodes == frozenset([NAF]) and not p.edges
    inst, failing = selection
    if inst.rule_id not in p.nodes:
        return False
    if any(src == inst.rule_id for src, _ in p.edges):
        return False

    failing_set = set(failing)
    satisfiable = [ant for ant in inst.antecedents if ant not in failing_set]
    supplied, fired = _simulate(t, c, p, blocked_rules=frozenset([inst.rule_id]))
    incoming = [src for src, dst in p.edges if dst == inst.rule_id]

    if not all(_ant_supported(a, incoming, supplied, c) for a in satisfiable):
        return False
    if (NAF, inst.rule_id) not in p.edges:
        return False

    used = _used_edges(p, supplied, fired, c)
    used.add((NAF, inst.rule_id))
    for src in incoming:
        if src != NAF and _edge_carries(src, satisfiable, supplied, c):
            used.add((src, inst.rule_id))

    rule_map = t.rule_map()
    if any(node in rule_map and node != inst.rule_id and node not in fired
           for node in p.nodes):
        return False
    return used == set(p.edges)
