"""Forward-chaining reasoner with negation as failure.

Answers questions under the closed-world assumption, extracts minimal
proof graphs for derivable statements, builds failure demonstrations for
underivable ones, and identifies the sentences whose removal flips an
answer.

Each theory is compiled once, by ``closure``, into a ``GroundProgram``,
the reasoner's only per-theory object. ``closure`` keeps the last program
it compiled and returns it again for the same theory object, so
``answer_question``, ``prove``, ``critical_sentences`` and ``check_proof``
called in turn on one theory share one program; at most one program is
kept. The compile runs on integer ids only: atoms are interned, each rule
is grounded straight to atom ids over the theory's entities, and an
instance is kept as its rule id, its head id and its positive and negative
antecedent ids. Atoms are partitioned into strata so that no atom depends
negatively on its own stratum (a theory with a dependency cycle through
negation is rejected). A negated atom that no instance concludes is set by
the facts alone, so its value is final before any stratum runs and it does
not raise its reader's stratum. The program derives its least fixpoint
once; every entry point reads it instead of grounding again. A derivation
runs stratum by stratum; inside a stratum each instance counts its missing
positive antecedents and fires when the count reaches zero (Dowling &
Gallier 1984), so every atom is derived and propagated at most once. A
negative antecedent holds when its atom is absent; by then the atom is
final, concluded in a lower stratum or set by the facts alone. Proof
search, failure selection and proof checking read the same id rows; a
``Literal`` is looked up only where a caller passes one in. Critical
sentences reuse the same program: a sentence's ablation is the program
without it, over the theory's own grounding, so a removed fact leaves the
base facts and a removed rule's instances are skipped. Its instances are a
subset of the program's, so the program's stratification holds for it.
Instances bound to an entity that only the removed sentence names stay.
They are harmless: they read and conclude only atoms whose subject is that
entity, which only instances bound to it read, and no question asks about
them, since every question names its own entities.

Proof conventions, applied in this order for a question literal q:

* q negative and an explicit fact states q: single fact node.
* the positive form of q is derivable: one derivation graph per distinct
  minimal derivation (facts feed rules, rule outputs feed rules, negative
  antecedents satisfied by failure feed from one collapsed NAF node).
* no rule concludes the positive form: single NAF node.
* otherwise: failure demonstration showing the concluding rule instance
  with the shallowest failure, derivations of its satisfiable
  antecedents, and a NAF node covering the failing branches.

A proof is checked by firing its rules' instances against what its
other nodes supply, as signed atom ids (atom id, positive): a fact its
literal, and NAF every negative antecedent whose atom the program leaves
underived, so an antecedent arrives over an edge exactly when the edge's
source supplies it. A per-program row holds each rule's instances as
(head, set of signed antecedents); a pass over the proof's rule nodes
unions what each node's sources supply once, and an instance fires when
its antecedent set is a subset of that union. Firing is monotone, so the
fired instances do not depend on the order they are tried in. The
shallowest failure is read from a per-program table of failure depths,
one relaxation over the instances.

Proof search reads two more per-program tables, filled entry by entry as
proofs are asked for, so an atom is enumerated once per program however
many literals, signs and deeper derivations ask for it (tabling, Chen &
Warren 1996). The fragment table holds the derivation fragments of an
atom off a path, keyed on (atom, path ∩ cone), where the cone of an atom
is the atom and every atom its fired instances reach through positive
antecedents. Those are the only atoms whose presence on the path the
enumeration tests, also in the entries it reads, so the key is exact:
two paths that agree on the cone give the same fragments. Keying on the
atom alone would not be, since in a positive cycle an atom's fragments
under an ancestor differ from its own. The fragment table is filled in
post-order from an explicit stack, not by recursion, so a derivation
chain of any length is proved. The proof table holds each derived atom's
minimal fragments and its proofs in canonical order; a positive and a
negative question on the atom slice the same list, and failure
demonstrations read the first minimal fragment of each satisfiable
antecedent from it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

from .proofgraph import NAF, ProofGraph, validate_structure
from .theory import Atom, Literal, Question, Theory

MAX_PROOFS = 10

# Per-atom cap on enumerated support fragments; keeps pathological
# theories from exploding the proof search. Generated data stays far
# below it. The cut is the one an enumeration without tables makes, made
# once per fragment table entry: it depends only on the entry's key.
_FRAGMENT_CAP = 256


class NonStratifiedTheory(ValueError):
    """A dependency cycle runs through a negative antecedent."""


def ground_instances(t: Theory):
    """Ground every rule straight to atom ids, in grounding order: rule by
    rule, a variable rule once per entity of the theory in sorted order.

    Returns the atom ids (every fact's atom included) and four columns with
    one entry per instance: its rule id, its head id, and its positive and
    its negative antecedent ids. No literal is bound.
    """
    ids: dict[Atom, int] = {}
    for f in t.facts:
        ids.setdefault(f.literal.atom(), len(ids))
    entities = t.entities()

    def column(lit: Literal, bindings) -> list[int]:
        """The atom id of ``lit`` under each binding."""
        if lit.is_variable():
            return [ids.setdefault((e, lit.predicate, lit.obj), len(ids)) for e in bindings]
        return [ids.setdefault(lit.atom(), len(ids))] * len(bindings)

    rule_ids, heads, positives, negatives = [], [], [], []
    for rule in t.rules:
        bindings = [None] if rule.variable() is None else entities
        positive, negative = [], []
        for lit in rule.antecedents:
            (positive if lit.positive else negative).append(column(lit, bindings))
        rule_ids += [rule.id] * len(bindings)
        heads += column(rule.consequent, bindings)
        positives += zip(*positive) if positive else [()] * len(bindings)
        negatives += zip(*negative) if negative else [()] * len(bindings)
    return ids, rule_ids, heads, positives, negatives


def _stratify(theory_id: str, atoms: list[Atom], heads: list[int],
              positives: list[tuple[int, ...]], negatives: list[tuple[int, ...]]) -> list[int]:
    """Least stratum per atom id, so negating a concluded atom always points strictly down.

    Relaxes every instance until a pass changes nothing: its head rises to
    the largest stratum of its positive antecedents and to one above each
    negated atom's that some instance concludes (Bellman-Ford on longest
    paths). An atom that nothing concludes is set by the facts alone, so
    its flag is final before any stratum runs, with or without a removed
    sentence; and a cycle through negation negates an atom on the cycle,
    which is concluded, so ignoring the others rejects the same theories.
    Without such a cycle a longest path is simple, so it has at most
    |atoms| - 1 edges and settles within that many passes; strata still
    rising after |atoms| + 1 passes mean the theory is not stratified.
    """
    strata = [0] * len(atoms)
    concluded = set(heads)
    if concluded.isdisjoint(itertools.chain.from_iterable(negatives)):
        return strata  # only a negated concluded atom lifts a stratum
    for _ in range(len(atoms) + 1):
        rising = None
        for head, pos, neg in zip(heads, positives, negatives):
            level = max([strata[a] for a in pos]
                        + [strata[a] + 1 for a in neg if a in concluded], default=0)
            if level > strata[head]:
                strata[head] = level
                rising = head
        if rising is None:
            return strata
    raise NonStratifiedTheory(f"theory {theory_id!r}: a dependency cycle through negation "
                              f"reaches atom {atoms[rising]}")


class GroundProgram:
    """A theory grounded, stratified and derived once, shared by every entry point.

    The compile runs on integer ids only. ``atom_ids`` interns the atoms
    (``atoms`` lists them by id), and instance ``i`` is the row
    ``rule_ids[i]``, ``heads[i]``, ``positives[i]`` and ``negatives[i]``:
    its rule's id, its head id and its antecedent ids. ``levels`` holds
    instance indices by the stratum of their head; ``watchers[a]`` lists
    the instances of atom ``a``'s stratum with ``a`` among their positive
    antecedents. ``flags`` is the least fixpoint by atom id and ``fired``
    lists the instances that fire in it.

    The rest is built on first read and then kept. ``derived`` is the
    fixpoint as a set of atoms; ``derivation_index`` maps each derived
    head id to the instances that fire for it, in grounding order;
    ``rule_instances`` holds each rule id's instances as (signed head,
    signed antecedent set); ``stated_by`` maps a signed atom id (atom id,
    positive) to the facts stating it; ``removals[r]`` holds rule ``r``'s
    instances, which ``derive`` skips without it. Proofs and their checks
    read these rows; no literal is bound.

    Proof search fills two tables, one entry per first read, and they go
    with the program. ``_fragment_table`` maps (atom id, path ∩ cone) to
    the atom's derivation fragments off the path; the cone of an atom
    (see ``_key``) is every atom whose presence on the path the enumeration
    can test, so the key is exact. ``_proof_table`` maps a derived atom id
    to its minimal fragments and its canonically sorted proofs. Entries
    are tuples, shared by every caller. Each table is exact and the same
    whatever order its entries are asked for in, and so are the lazily
    built rows above (``failure_depths``, ``supplies``), so ``closure``
    may hand one program to every call on its theory.
    """

    def __init__(self, t: Theory):
        self.theory = t
        self.atom_ids, self.rule_ids, self.heads, self.positives, self.negatives = \
            ground_instances(t)
        self.atoms = list(self.atom_ids)
        self.fact_atoms = [(f.id, self.atom_ids[f.literal.atom()])
                           for f in t.facts if f.literal.positive]
        strata = _stratify(t.id, self.atoms, self.heads, self.positives, self.negatives)
        self.levels: list[list[int]] = [[] for _ in range(max(strata, default=-1) + 1)]
        self.watchers: list[list[int]] = [[] for _ in strata]
        for i, head in enumerate(self.heads):
            self.levels[strata[head]].append(i)
            for a in self.positives[i]:
                if strata[a] == strata[head]:
                    self.watchers[a].append(i)
        self.flags, self.fired = self.derive()
        # proof search tables, filled entry by entry as proofs are asked for
        self._cones: dict[int, frozenset[int]] = {}
        self._fragment_table: dict[tuple[int, frozenset[int]], tuple[_Fragment, ...]] = {}
        self._proof_table: dict[int, tuple[tuple[_Fragment, ...], tuple[ProofGraph, ...]]] = {}

    @cached_property
    def stated_by(self) -> dict[tuple[int, bool], list[str]]:
        """The ids of the facts stating each signed atom id, in fact order."""
        stated: dict[tuple[int, bool], list[str]] = {}
        for f in self.theory.facts:
            lit = f.literal
            stated.setdefault((self.atom_ids[lit.atom()], lit.positive), []).append(f.id)
        return stated

    @cached_property
    def derived(self) -> frozenset[Atom]:
        return frozenset(atom for atom, a in self.atom_ids.items() if self.flags[a])

    @cached_property
    def derivation_index(self) -> dict[int, list[int]]:
        index: dict[int, list[int]] = {}
        for i in sorted(self.fired):
            index.setdefault(self.heads[i], []).append(i)
        return index

    @cached_property
    def rule_instances(self) -> dict[str, list[tuple[tuple[int, bool],
                                                     frozenset[tuple[int, bool]]]]]:
        """Each rule id's instances, in grounding order, as (signed head,
        signed antecedents): what a proof check fires."""
        rows: dict[str, list] = {}
        for i, rule_id in enumerate(self.rule_ids):
            rows.setdefault(rule_id, []).append(
                ((self.heads[i], True), frozenset(_antecedents(self, i))))
        return rows

    @cached_property
    def removals(self) -> dict[str, set[int]]:
        """Each rule id's instances."""
        removals: dict[str, set[int]] = {}
        for i, rule_id in enumerate(self.rule_ids):
            removals.setdefault(rule_id, set()).add(i)
        return removals

    @cached_property
    def supplies(self) -> dict[str, frozenset[tuple[int, bool]]]:
        """What each non-rule node of a proof supplies, as signed atom ids: a
        fact its literal, and NAF every negative antecedent whose atom
        stays underived."""
        supplies = {fact_id: frozenset([signed])
                    for signed, fact_ids in self.stated_by.items() for fact_id in fact_ids}
        supplies[NAF] = frozenset((a, False) for neg in self.negatives for a in neg
                                  if not self.flags[a])
        return supplies

    @cached_property
    def failure_depths(self) -> list[float]:
        """Failure depth per atom id, relaxed until a pass changes nothing:
        0 for an underived atom that nothing concludes, else that of its
        shallowest concluder, one deeper than its shallowest failing
        antecedent (a failing negative one counts as 0). Derived atoms stay
        infinite."""
        flags = self.flags
        concluded = set(self.heads)
        depths = [float("inf") if flags[a] or a in concluded else 0.0 for a in range(len(flags))]
        changed = True
        while changed:
            changed = False
            for head, pos, neg in zip(self.heads, self.positives, self.negatives):
                if flags[head]:
                    continue
                depth = 1.0 if any(flags[a] for a in neg) \
                    else 1.0 + min(depths[a] for a in pos if not flags[a])
                if depth < depths[head]:
                    depths[head] = depth
                    changed = True
        return depths

    def _key(self, a: int, path: frozenset[int]) -> tuple[int, frozenset[int]]:
        """The fragment table's key for atom id ``a`` off ``path``: ``a`` and
        the atoms of ``path`` in its cone, which is ``a`` and every atom its
        fired instances reach through positive antecedents, recursively."""
        cone = self._cones.get(a)
        if cone is None:
            index, positives = self.derivation_index, self.positives
            reached = {a}
            frontier = [a]
            while frontier:
                for i in index.get(frontier.pop(), ()):
                    for b in positives[i]:
                        if b not in reached:
                            reached.add(b)
                            frontier.append(b)
            cone = self._cones[a] = frozenset(reached)
        return a, path & cone

    def derive(self, removed: Optional[str] = None) -> tuple[bytearray, list[int]]:
        """Derived flags by atom id and the indices of the instances that
        fire, for the program or, given ``removed``, that sentence's
        ablation: the program without its fact or its rule's instances."""
        derived = bytearray(len(self.atom_ids))
        for fact_id, a in self.fact_atoms:
            if fact_id != removed:
                derived[a] = 1
        skip = self.removals.get(removed, ()) if removed is not None else ()
        heads, positives, negatives, watchers = \
            self.heads, self.positives, self.negatives, self.watchers
        missing = [0] * len(heads)
        fired = []
        for level in self.levels:
            ready = []
            for i in level:
                if i in skip or negatives[i] and any(derived[a] for a in negatives[i]):
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

    def holds(self, lit: Literal, flags: Optional[bytearray] = None,
              removed: Optional[str] = None) -> bool:
        """Closed-world truth of ``lit`` in the program, or against the
        flags from ``derive(removed)``."""
        a = self.atom_ids.get(lit.atom())
        present = a is not None and (self.flags if flags is None else flags)[a]
        if lit.positive:
            return bool(present)
        return not present or any(f != removed for f in self.stated_by.get((a, False), ()))


# The last program ``closure`` compiled; one slot, so at most one is held.
_last: Optional[GroundProgram] = None


def closure(t: Theory) -> GroundProgram:
    """The theory's ground program, with its least fixpoint derived.

    The last program compiled is kept and returned again while the same
    theory object is asked for, so a caller that loops theory by theory
    (its questions and proofs inside) compiles each theory once, whichever
    entry points it calls. Another theory replaces it. The match is on
    identity: an equal theory is hashed by walking every sentence, which
    costs about a compile, and the slot holds its theory, so the identity
    cannot pass to another object. Sharing is safe because every
    per-program table is exact whatever order fills it, and ``derive``
    returns fresh arrays. A theory that fails to compile leaves the slot
    as it was, so it raises on every call. A caller that interleaves
    theories still gets each one's own program, compiled again.
    """
    global _last
    program = _last
    if program is None or program.theory is not t:
        program = _last = GroundProgram(t)
    return program


def answer_question(t: Theory, q: Question) -> bool:
    """Truth of the question literal under the closed-world assumption."""
    return closure(t).holds(q.literal)


# ---------------------------------------------------------------------------
# Proof extraction
# ---------------------------------------------------------------------------

# A derivation fragment: its graph and the node that supplies its atom.
_Fragment = tuple[ProofGraph, str]


def _leaf(node: str) -> _Fragment:
    return ProofGraph(frozenset([node]), frozenset()), node


def _antecedents(program: GroundProgram, i: int) -> list[tuple[int, bool]]:
    """Instance ``i``'s antecedents as signed atom ids, positive ones first."""
    return [(b, True) for b in program.positives[i]] + [(b, False) for b in program.negatives[i]]


def _satisfiable(program: GroundProgram, i: int) -> list[tuple[int, bool]]:
    """Instance ``i``'s antecedents that hold in the program's fixpoint."""
    return [(b, positive) for b, positive in _antecedents(program, i)
            if bool(program.flags[b]) == positive]


def _negative_support(program: GroundProgram, a: int) -> _Fragment:
    """Support for a satisfied negative antecedent on atom ``a``: the first
    fact stating its negation when one exists, the collapsed NAF node
    otherwise."""
    stated = program.stated_by.get((a, False))
    return _leaf(stated[0] if stated else NAF)


def _fragments(program: GroundProgram, a: int, path: frozenset[int]) -> tuple[_Fragment, ...]:
    """All derivation fragments for a derivable atom id, avoiding any atom
    already under derivation on the current path, read from the program's
    fragment table, which is filled in post-order from an explicit stack.
    An enumeration yields the key of each entry it reads and resumes with
    the entry once it is stored; a missing entry's enumeration is pushed
    above it. The atoms up the stack are distinct (a child's atom is off
    its parent's path, and a key's path keeps every atom below it still in
    its cone), so a key never waits on itself."""
    table = program._fragment_table
    root = program._key(a, path)
    fragments = table.get(root)
    stack = [(root, _enumerate_fragments(program, *root))] if fragments is None else []
    while stack:
        key, enumeration = stack[-1]
        try:
            child = enumeration.send(fragments)
        except StopIteration as done:
            fragments = table[key] = done.value
            stack.pop()
            continue
        fragments = table.get(child)
        if fragments is None:
            stack.append((child, _enumerate_fragments(program, *child)))
    return fragments


def _enumerate_fragments(program: GroundProgram, a: int, path: frozenset[int]):
    """The fragments of key (``a``, ``path``), as a generator that yields
    the key of each entry it reads and returns the tuple."""
    options: list[_Fragment] = []
    stated = program.stated_by.get((a, True))
    if stated:
        options.append(_leaf(stated[0]))
    for i in program.derivation_index.get(a, ()):
        choice_lists: list[tuple[_Fragment, ...]] = []
        for b in program.positives[i]:
            subs = () if b in path else (yield program._key(b, path | {b}))
            if not subs:
                break
            choice_lists.append(subs)
        if len(choice_lists) < len(program.positives[i]):
            continue  # a positive antecedent has no fragment off the path
        # one choice per negative antecedent, so the cap cuts the same combos
        choice_lists += [(_negative_support(program, b),) for b in program.negatives[i]]
        rule_id = program.rule_ids[i]
        for combo in itertools.product(*choice_lists):
            nodes = frozenset([rule_id]).union(*(g.nodes for g, _ in combo)) \
                if combo else frozenset([rule_id])
            edges = frozenset((root, rule_id) for _, root in combo).union(
                *(g.edges for g, _ in combo)) if combo else frozenset()
            options.append((ProofGraph(nodes, edges), rule_id))
            if len(options) >= _FRAGMENT_CAP:
                break
        if len(options) >= _FRAGMENT_CAP:
            break
    unique = tuple(dict.fromkeys(options))
    return unique if len(unique) < 2 else tuple(sorted(
        unique, key=lambda f: (sorted(f[0].nodes), sorted(f[0].edges))))


def _proved(program: GroundProgram,
            a: int) -> tuple[tuple[_Fragment, ...], tuple[ProofGraph, ...]]:
    """A derived atom id's minimal fragments, those whose graph properly
    contains no other's (nodes and edges), and its proofs, their graphs in
    canonical order, read from the program's proof table."""
    entry = program._proof_table.get(a)
    if entry is None:
        fragments = _fragments(program, a, frozenset([a]))
        minimal = tuple((f, root) for f, root in fragments if not any(
            g != f and g.nodes <= f.nodes and g.edges <= f.edges for g, _ in fragments))
        proofs = [graph for graph, _root in minimal]
        if len(proofs) > 1:
            proofs.sort(key=ProofGraph.canonical_key)
        entry = program._proof_table[a] = (minimal, tuple(proofs))
    return entry


def select_failed_instance(program: GroundProgram, atom: Atom) -> Optional[int]:
    """The index of the concluding instance with the shallowest failure for
    an underivable atom; ties break on rule index, then binding. None when
    nothing concludes it. Its antecedents that fail are those the
    program's flags leave false."""
    a = program.atom_ids.get(atom)
    concluders = [] if a is None or program.flags[a] else \
        [i for i, head in enumerate(program.heads) if head == a]
    if not concluders:
        return None
    # most underivable atoms have one concluder; then the failure table
    # is not needed, and most programs never build it. Grounding order is
    # (rule index, binding) order, so the first shallowest wins the tie.
    if len(concluders) == 1:
        return concluders[0]
    flags = program.flags
    return min(concluders, key=lambda i: min(
        [program.failure_depths[b] for b in program.positives[i] if not flags[b]]
        + [0.0 for b in program.negatives[i] if flags[b]]))


def _failed_proof(program: GroundProgram, i: Optional[int]) -> ProofGraph:
    """The failure demonstration around the picked instance ``i``."""
    if i is None:
        return ProofGraph(frozenset([NAF]), frozenset())
    # an instance concluding an underived atom has a failing antecedent for NAF to cover
    rule_id = program.rule_ids[i]
    nodes = {rule_id, NAF}
    edges = {(NAF, rule_id)}
    for b, positive in _satisfiable(program, i):
        graph, root = _proved(program, b)[0][0] if positive \
            else _negative_support(program, b)
        nodes |= graph.nodes
        edges |= graph.edges
        edges.add((root, rule_id))
    return ProofGraph(frozenset(nodes), frozenset(edges))


def prove_literal(program: GroundProgram, lit: Literal) -> list[ProofGraph]:
    a = program.atom_ids.get(lit.atom())

    stated = None if lit.positive else program.stated_by.get((a, False))
    if stated:
        return [ProofGraph.of([stated[0]])]

    if a is not None and program.flags[a]:
        return list(_proved(program, a)[1][:MAX_PROOFS])

    return [_failed_proof(program, select_failed_instance(program, lit.atom()))]


def prove(t: Theory, q: Question) -> list[ProofGraph]:
    """Up to ``MAX_PROOFS`` distinct minimal proofs, deterministically ordered."""
    return prove_literal(closure(t), q.literal)


def critical_sentences(t: Theory) -> list[set[str]]:
    """For each question of t, in order, the ids of the facts/rules whose
    individual removal flips its answer.

    The theory is compiled once, each sentence's ablation is derived from
    that program (``GroundProgram.derive``), and every question is
    answered against it.
    """
    if not t.questions:
        return []
    program = closure(t)
    base = [program.holds(q.literal) for q in t.questions]
    critical: list[set[str]] = [set() for _ in t.questions]
    for sentence_id in t.sentence_ids():
        flags, _fired = program.derive(sentence_id)
        for q, answer, found in zip(t.questions, base, critical):
            if program.holds(q.literal, flags, sentence_id) != answer:
                found.add(sentence_id)
    return critical


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

def check_proof(t: Theory, q: Question, p: ProofGraph) -> bool:
    """True iff p is the correct derivation (or failure demonstration) for q.

    A derivation must supply the question's atom. A failure demonstration
    must show the instance ``select_failed_instance`` picks, with an edge
    from NAF (covering the failing antecedents), each satisfiable
    antecedent supplied over an edge, and no out-edge, so nothing it fires
    reaches another node. Either way every edge must carry an antecedent
    of a fired instance of the rule it enters (for the picked rule, of its
    satisfiable ones), so a connected graph has no rule node that never
    fires.
    """
    if validate_structure(p):
        return False
    unknown = t.unknown_ids(p.nodes)
    if unknown:
        raise KeyError(f"unknown node id {unknown[0]!r}")

    program = closure(t)
    a = program.atom_ids.get(q.literal.atom())

    stated = None if q.literal.positive else program.stated_by.get((a, False))
    if stated:
        return p.nodes == frozenset([stated[0]]) and not p.edges

    supplied, needs = _simulate(program, p)
    if a is not None and program.flags[a]:
        exempt = None
        if not any((a, True) in signed for signed in supplied.values()):
            return False
    else:
        i = select_failed_instance(program, q.literal.atom())
        if i is None:
            return p.nodes == frozenset([NAF]) and not p.edges
        rule_id = program.rule_ids[i]
        exempt = (NAF, rule_id)  # an edge needs both ends in p, so the rule node is there
        if exempt not in p.edges or any(src == rule_id for src, _ in p.edges):
            return False
        needs[rule_id] = set(_satisfiable(program, i))
        if not needs[rule_id] <= set().union(*(supplied[src] for src, dst in p.edges
                                               if dst == rule_id)):
            return False

    return all((src, dst) == exempt or not supplied[src].isdisjoint(needs.get(dst, ()))
               for src, dst in p.edges)


def _simulate(program: GroundProgram, p: ProofGraph):
    """Fire the proof's rules against what its nodes supply (see
    ``GroundProgram.supplies``) until a pass fires nothing. Returns the
    signed atom ids supplied per node and, per fired rule node, the
    antecedents of its fired instances. A rule may fire under several
    bindings. Each pass visits each rule node once: it unions what the
    node's sources supply, and an instance (``GroundProgram.rule_instances``)
    fires when its antecedent set is a subset of that union. Firing only
    adds, so the fired set, and with it ``needs``, is the same whatever
    order nodes and instances are tried in.
    """
    supplied = {node: set(program.supplies.get(node, ())) for node in p.nodes}
    incoming: dict[str, list[str]] = {}
    for s, d in p.edges:
        incoming.setdefault(d, []).append(s)
    rules = [(node, program.rule_instances[node], incoming.get(node, ()))
             for node in p.nodes if node in program.rule_instances]

    needs: dict[str, set[tuple[int, bool]]] = {}
    changed = True
    while changed:
        changed = False
        for node, instances, sources in rules:
            arrived = set().union(*(supplied[s] for s in sources))
            output = supplied[node]
            for consequent, antecedents in instances:
                if consequent not in output and antecedents <= arrived:
                    output.add(consequent)
                    needs.setdefault(node, set()).update(antecedents)
                    changed = True
    return supplied, needs
