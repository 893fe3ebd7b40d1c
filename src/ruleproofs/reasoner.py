"""Forward-chaining reasoner with negation as failure.

Answers questions under the closed-world assumption, extracts minimal
proof graphs for derivable statements, builds failure demonstrations for
underivable ones, and identifies the sentences whose removal flips an
answer. Negative antecedents are evaluated stratum by stratum: the
program is grounded, atoms are partitioned so that no atom depends
negatively on its own stratum, and a negative antecedent holds when its
atom is absent from the closure of the strata below it. Theories with a
dependency cycle through negation are rejected.

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
from dataclasses import dataclass, replace
from typing import Optional

from .proofgraph import NAF, ProofGraph, validate_structure
from .theory import Atom, Literal, Question, Theory, atom_sort_key

DEFAULT_MAX_PROOFS = 10

# Per-atom cap on enumerated support fragments; keeps pathological
# theories from exploding the proof search. Generated data stays far
# below it.
_FRAGMENT_CAP = 256
_UNREACHABLE = float("inf")


class NonStratifiedTheory(ValueError):
    """A dependency cycle runs through a negative antecedent."""


class IterationBoundExceeded(RuntimeError):
    """Fixpoint failed to settle within the theoretical bound (a bug)."""


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
    iteration_count: int


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


def _stratify(instances: list[GroundInstance]) -> dict[Atom, int]:
    """Assign strata so negative dependencies always point strictly down.

    Uses Tarjan's strongly connected components on the ground dependency
    graph; a negative edge inside a component means the theory is not
    stratified.
    """
    edges: dict[Atom, set[tuple[Atom, bool]]] = {}
    atoms: set[Atom] = set()
    for inst in instances:
        head = inst.consequent.atom()
        atoms.add(head)
        for ant in inst.antecedents:
            atoms.add(ant.atom())
            edges.setdefault(ant.atom(), set()).add((head, not ant.positive))

    order = {}
    low = {}
    component: dict[Atom, int] = {}
    counter = itertools.count()
    comp_counter = itertools.count()
    stack: list[Atom] = []
    on_stack: set[Atom] = set()

    def successors(node):
        return iter(sorted(edges.get(node, ()),
                           key=lambda pair: (atom_sort_key(pair[0]), pair[1])))

    for root in sorted(atoms, key=atom_sort_key):
        if root in order:
            continue
        work = [(root, successors(root))]
        order[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for successor, _neg in it:
                if successor not in order:
                    order[successor] = low[successor] = next(counter)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, successors(successor)))
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], order[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                comp_id = next(comp_counter)
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_id
                    if member == node:
                        break

    for src, targets in edges.items():
        for dst, negative in targets:
            if negative and component[src] == component[dst]:
                raise NonStratifiedTheory(
                    f"negation cycle through atom {src} -> {dst}")

    # Stratum of a component = longest count of negative edges on any
    # path into it, resolved over the (acyclic) condensation.
    comp_stratum: dict[int, int] = {}
    comp_edges: dict[int, set[tuple[int, bool]]] = {}
    for src, targets in edges.items():
        for dst, negative in targets:
            if component[src] != component[dst]:
                comp_edges.setdefault(component[dst], set()).add((component[src], negative))

    def stratum_of(comp: int) -> int:
        if comp in comp_stratum:
            return comp_stratum[comp]
        pending = [comp]
        while pending:
            current = pending[-1]
            if current in comp_stratum:
                pending.pop()
                continue
            missing = [pred for pred, _ in comp_edges.get(current, ()) if pred not in comp_stratum]
            if missing:
                pending.extend(missing)
                continue
            value = 0
            for pred, negative in comp_edges.get(current, ()):
                value = max(value, comp_stratum[pred] + (1 if negative else 0))
            comp_stratum[current] = value
            pending.pop()
        return comp_stratum[comp]

    return {atom: stratum_of(comp) for atom, comp in component.items()}


def closure(t: Theory) -> Closure:
    """Least fixpoint of the ground program, evaluated stratum by stratum."""
    instances = ground_instances(t)
    strata = _stratify(instances)
    derived: set[Atom] = {f.literal.atom() for f in t.facts if f.literal.positive}
    atom_space = len(strata) + len(derived) + 1
    bound = max(1, len(instances)) * atom_space + 1

    iterations = 0
    max_stratum = max(strata.values(), default=0)
    for level in range(max_stratum + 1):
        level_instances = [
            inst for inst in instances if strata[inst.consequent.atom()] == level
        ]
        changed = True
        while changed:
            iterations += 1
            if iterations > bound:
                raise IterationBoundExceeded(
                    f"fixpoint did not settle within {bound} passes")
            changed = False
            for inst in level_instances:
                head = inst.consequent.atom()
                if head in derived:
                    continue
                if _instance_fires(inst, derived):
                    derived.add(head)
                    changed = True

    index: dict[Atom, list[GroundInstance]] = {}
    for inst in instances:
        if inst.consequent.atom() in derived and _instance_fires(inst, derived):
            index.setdefault(inst.consequent.atom(), []).append(inst)
    frozen = {
        atom: tuple(sorted(entries, key=lambda i: (i.rule_index, i.binding or "")))
        for atom, entries in index.items()
    }
    return Closure(frozenset(derived), frozen, iterations)


def _instance_fires(inst: GroundInstance, derived: set[Atom]) -> bool:
    for ant in inst.antecedents:
        if ant.positive:
            if ant.atom() not in derived:
                return False
        elif ant.atom() in derived:
            return False
    return True


def holds_under_cwa(t: Theory, c: Closure, lit: Literal) -> bool:
    atom = lit.atom()
    if lit.positive:
        return atom in c.derived
    return atom not in c.derived or any(f.literal == lit for f in t.facts)


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
    def __init__(self, t: Theory, c: Closure):
        self.theory = t
        self.closure = c
        self.fact_by_literal = {f.literal: f.id for f in t.facts}

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
    kept = []
    for f in fragments:
        dominated = False
        for g in fragments:
            if (g.nodes, g.edges) != (f.nodes, f.edges) and g.nodes <= f.nodes and g.edges <= f.edges:
                dominated = True
                break
        if not dominated:
            kept.append(f)
    return kept


def _failure_depths(t: Theory, c: Closure, instances: list[GroundInstance]):
    """Failure depth for every underivable atom and non-firing instance.

    An underivable atom that no rule concludes fails at depth 0; a rule
    instance fails one level above its shallowest failing antecedent; an
    atom fails at the depth of its shallowest concluding instance.
    """
    by_head: dict[Atom, list[GroundInstance]] = {}
    for inst in instances:
        if inst.consequent.atom() not in c.derived:
            by_head.setdefault(inst.consequent.atom(), []).append(inst)

    def depth_of_atom(atom: Atom, visiting: frozenset[Atom]) -> float:
        if atom in visiting:
            return _UNREACHABLE
        concluders = by_head.get(atom, [])
        if not concluders:
            return 0.0
        return min(depth_of_instance(inst, visiting | {atom}) for inst in concluders)

    def depth_of_instance(inst: GroundInstance, visiting: frozenset[Atom]) -> float:
        branch_depths = []
        for ant in inst.antecedents:
            if ant.positive and ant.atom() not in c.derived:
                branch_depths.append(depth_of_atom(ant.atom(), visiting))
            elif not ant.positive and ant.atom() in c.derived:
                branch_depths.append(0.0)
        if not branch_depths:
            return _UNREACHABLE
        return 1.0 + min(branch_depths)

    return by_head, depth_of_atom, depth_of_instance


def select_failed_instance(t: Theory, c: Closure, atom: Atom):
    """Pick the concluding instance with the shallowest failure for an
    underivable atom; ties break on rule index, then binding. Returns
    (instance, failing antecedent set) or None when nothing concludes it."""
    instances = ground_instances(t)
    by_head, _depth_of_atom, depth_of_instance = _failure_depths(t, c, instances)
    concluders = by_head.get(atom)
    if not concluders:
        return None
    ranked = sorted(
        concluders,
        key=lambda inst: (
            depth_of_instance(inst, frozenset([atom])),
            inst.rule_index,
            inst.binding or "",
        ),
    )
    chosen = ranked[0]
    failing = tuple(
        ant
        for ant in chosen.antecedents
        if (ant.positive and ant.atom() not in c.derived)
        or (not ant.positive and ant.atom() in c.derived)
    )
    return chosen, failing


def _failed_proof(t: Theory, c: Closure, atom: Atom) -> ProofGraph:
    selection = select_failed_instance(t, c, atom)
    if selection is None:
        return ProofGraph.of([NAF])
    inst, failing = selection
    failing_set = set(failing)
    search = _ProofSearch(t, c)
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

    if not lit.positive:
        for f in t.facts:
            if f.literal == lit:
                return [ProofGraph.of([f.id])]

    if atom in c.derived:
        search = _ProofSearch(t, c)
        fragments = _minimal(search.fragments(atom, frozenset([atom])))
        proofs = [ProofGraph.of(f.nodes, f.edges) for f in fragments]
        proofs.sort(key=ProofGraph.canonical_key)
        return proofs[:max_proofs]

    return [_failed_proof(t, c, atom)]


def prove(t: Theory, q: Question, max_proofs: int = DEFAULT_MAX_PROOFS) -> list[ProofGraph]:
    """Up to ``max_proofs`` distinct minimal proofs, deterministically ordered."""
    return prove_literal(t, closure(t), q.literal, max_proofs)


def critical_sentences(t: Theory, q: Question) -> set[str]:
    """Ids of facts/rules whose individual removal flips the answer."""
    base = answer_question(t, q)
    critical = set()
    for sentence_id in t.sentence_ids():
        ablated = _remove_sentence(t, sentence_id)
        if answer_question(ablated, q) != base:
            critical.add(sentence_id)
    return critical


def _remove_sentence(t: Theory, sentence_id: str) -> Theory:
    return replace(
        t,
        facts=tuple(f for f in t.facts if f.id != sentence_id),
        rules=tuple(r for r in t.rules if r.id != sentence_id),
    )


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

    if not q.literal.positive and any(f.literal == q.literal for f in t.facts):
        lookup = next(f.id for f in t.facts if f.literal == q.literal)
        return p.nodes == frozenset([lookup]) and not p.edges

    if atom in c.derived:
        return _check_derivation(t, c, atom, p)
    return _check_failure(t, c, atom, p)


def _simulate(t: Theory, c: Closure, p: ProofGraph, blocked_rules: frozenset[str] = frozenset()):
    """Fire the proof's rules against its own fact nodes, respecting edges.

    Returns (literals supplied per node, fired bindings per rule node) at
    fixpoint. A rule may fire under several bindings; an antecedent is
    satisfied when any incoming edge supplies it, with the NAF node
    standing in for negative antecedents whose atom the full theory
    cannot derive.
    """
    fact_map = t.fact_map()
    rule_map = t.rule_map()
    entities = t.entities()
    supplied: dict[str, set[Literal]] = {
        node: ({fact_map[node].literal} if node in fact_map else set()) for node in p.nodes
    }
    incoming: dict[str, list[str]] = {n: [] for n in p.nodes}
    for s, d in p.edges:
        incoming[d].append(s)

    fired: dict[str, list[Optional[str]]] = {}
    changed = True
    while changed:
        changed = False
        for node in p.nodes:
            if node not in rule_map or node in blocked_rules:
                continue
            rule = rule_map[node]
            bindings = entities if rule.is_variable_rule() else [None]
            for binding in bindings:
                head = rule.consequent.bind(binding) if binding else rule.consequent
                if head in supplied[node]:
                    continue
                ants = [a.bind(binding) if binding else a for a in rule.antecedents]
                if all(_ant_supported(a, incoming[node], supplied, c) for a in ants):
                    supplied[node].add(head)
                    fired.setdefault(node, []).append(binding)
                    changed = True
    return supplied, fired


def _ant_supported(ant: Literal, sources: list[str],
                   supplied: dict[str, set[Literal]], c: Closure) -> bool:
    if any(src != NAF and ant in supplied[src] for src in sources):
        return True
    return not ant.positive and NAF in sources and ant.atom() not in c.derived


def _edge_carries(src: str, ants: list[Literal],
                  supplied: dict[str, set[Literal]], c: Closure) -> bool:
    """Whether the source node supplies at least one of these antecedents."""
    if src == NAF:
        return any(not a.positive and a.atom() not in c.derived for a in ants)
    return any(a in supplied[src] for a in ants)


def _used_edges(t: Theory, p: ProofGraph, supplied, fired, c: Closure) -> set[tuple[str, str]]:
    rule_map = t.rule_map()
    used = set()
    for src, dst in p.edges:
        rule = rule_map.get(dst)
        if rule is None:
            continue
        for binding in fired.get(dst, ()):
            ants = [a.bind(binding) if binding else a for a in rule.antecedents]
            if _edge_carries(src, ants, supplied, c):
                used.add((src, dst))
                break
    return used


def _check_derivation(t: Theory, c: Closure, atom: Atom, p: ProofGraph) -> bool:
    supplied, fired = _simulate(t, c, p)
    goal = Literal(*atom)
    if not any(goal in lits for lits in supplied.values()):
        return False
    rule_map = t.rule_map()
    if any(node in rule_map and node not in fired for node in p.nodes):
        return False
    return _used_edges(t, p, supplied, fired, c) == set(p.edges)


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

    used = _used_edges(t, p, supplied, fired, c)
    used.add((NAF, inst.rule_id))
    for src in incoming:
        if src != NAF and _edge_carries(src, satisfiable, supplied, c):
            used.add((src, inst.rule_id))

    rule_map = t.rule_map()
    if any(node in rule_map and node != inst.rule_id and node not in fired
           for node in p.nodes):
        return False
    return used == set(p.edges)
