"""Proof graphs: structure checks, depth, exact matching, and DOT export.

A proof graph is a directed graph over sentence identifiers ("F3", "R2")
plus at most one special "NAF" node standing for everything established
by failure to derive. Edges always point into rule nodes: a fact or the
NAF node feeds a rule, or one rule's output feeds another rule. Rule-rule
edges may exist in both directions between the same pair of rules.

This module knows graphs only; whether a graph is the right derivation
for a question depends on the theory and is checked by
``reasoner.check_proof``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable

NAF = "NAF"

FACT = "fact"
RULE = "rule"
NAF_KIND = "naf"

# What ``ProofGraph.from_dict`` accepts, checked item by item with ``map``:
# exact JSON types, and two ends per edge.
_STRING, _LIST, _PAIR = frozenset({str}), frozenset({list}), frozenset({2})


# Every theory uses the same few dozen node ids (F1, R3, NAF, ...), and
# sorting and measuring proofs ask about them again and again, so each is
# classified once per process. An id that raises is not cached, so it
# raises on every call.
_ID_CACHE_SIZE = 4096


@lru_cache(maxsize=_ID_CACHE_SIZE)
def node_kind(node_id: str) -> str:
    """Classify a node id as 'fact', 'rule', or 'naf'. A fact or rule id is
    "F" or "R" and a number in ASCII digits without a leading zero."""
    if node_id == NAF:
        return NAF_KIND
    kind, number = node_id[:1], node_id[1:]
    if kind in ("F", "R") and number.isascii() and number.isdigit() and number[0] != "0":
        return FACT if kind == "F" else RULE
    raise ValueError(f"malformed proof node id: {node_id!r}")


@lru_cache(maxsize=_ID_CACHE_SIZE)
def node_sort_key(node_id: str) -> tuple[int, int]:
    """Canonical order: facts by index, then rules by index, then NAF."""
    kind = node_kind(node_id)
    if kind == FACT:
        return (0, int(node_id[1:]))
    if kind == RULE:
        return (1, int(node_id[1:]))
    return (2, 0)


@dataclass(frozen=True)
class ProofGraph:
    """Immutable node/edge sets with set semantics for comparison."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def of(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> "ProofGraph":
        """A graph from any iterables of ids and edge pairs, such as the
        lists of tests and demos. Code that already holds the two frozen
        sets, as the reasoner does, passes them to ``ProofGraph`` as they
        are."""
        return cls(frozenset(nodes), frozenset((s, d) for s, d in edges))

    def canonical_nodes(self) -> list[str]:
        return sorted(self.nodes, key=node_sort_key)

    def canonical_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])))

    def canonical_key(self) -> tuple:
        return (tuple(self.canonical_nodes()), tuple(self.canonical_edges()))

    def to_dict(self) -> dict:
        return {
            "nodes": self.canonical_nodes(),
            "edges": [[s, d] for s, d in self.canonical_edges()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProofGraph":
        """Read a ``to_dict`` record; raises TypeError unless ``nodes`` is a
        list of strings and ``edges`` a list of two-string lists."""
        nodes, edges = d["nodes"], d["edges"]
        if not (type(nodes) is list and _STRING.issuperset(map(type, nodes))):
            raise TypeError(f"nodes must be a list of strings, got {nodes!r}")
        if not (type(edges) is list and _LIST.issuperset(map(type, edges))
                and _PAIR.issuperset(map(len, edges))
                and _STRING.issuperset(map(type, chain.from_iterable(edges)))):
            raise TypeError(f"edges must be a list of two-string lists, got {edges!r}")
        return cls(frozenset(nodes), frozenset(map(tuple, edges)))


def is_connected(nodes: frozenset[str], edges: Iterable[tuple[str, str]]) -> bool:
    """Connectivity of the undirected view; a single node is connected."""
    if not nodes:
        return False
    adjacency = {n: set() for n in nodes}
    for s, d in edges:
        if s in adjacency and d in adjacency:
            adjacency[s].add(d)
            adjacency[d].add(s)
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = adjacency[frontier.pop()] - seen
        seen.update(fresh)
        frontier.extend(fresh)
    return len(seen) == len(nodes)


def validate_structure(p: ProofGraph) -> list[str]:
    """Check the structural invariants; return one message per violation."""
    violations = []
    if not p.nodes:
        violations.append("graph has no nodes")
        return violations
    kinds = {}
    for n in p.nodes:
        try:
            kinds[n] = node_kind(n)
        except ValueError:
            violations.append(f"malformed node id {n!r}")
    for s, d in sorted(p.edges):  # canonical order would need well-formed ids
        if s not in p.nodes or d not in p.nodes:
            violations.append(f"edge {s}->{d} references a node outside the graph")
            continue
        if s == d:
            violations.append(f"self-loop on {s}")
            continue
        if s not in kinds or d not in kinds:
            continue
        if kinds[d] != RULE:
            violations.append(f"edge {s}->{d} must point into a rule node")
    if not violations and not is_connected(p.nodes, p.edges):
        violations.append("graph is not connected (undirected)")
    return violations


# Callers measure the same proofs again (a negated candidate shares its
# positive form's proofs, and the generator's final check re-reads the
# chosen ones), so this many distinct graphs keep their depth: a few
# times the most that generating one theory measures (27 over 400 du5
# theories). A graph that raises is not kept, so it raises on every call.
_PROOF_CACHE_SIZE = 128


def proof_depth(p: ProofGraph) -> int:
    """Largest number of rule nodes on any simple directed path.

    One pass in Kahn's topological order: each node keeps the most rule
    nodes on any path ending at it, its own rule flag plus the best over
    its predecessors, and the answer is the largest of these. In a DAG
    every path is simple, so this is exact. A pass that leaves nodes
    unreached has met a directed cycle (a self-loop counts); then every
    simple path is enumerated instead. Raises ValueError for a malformed
    node id and KeyError for an edge end outside ``p.nodes``. Each
    distinct graph is measured once while it stays in the memo.
    """
    return _measured_depth(p)


@lru_cache(maxsize=_PROOF_CACHE_SIZE)
def _measured_depth(p: ProofGraph) -> int:
    is_rule = {n: int(node_kind(n) == RULE) for n in p.nodes}
    successors: dict[str, list[str]] = {n: [] for n in p.nodes}
    indegree = dict.fromkeys(p.nodes, 0)
    for s, d in p.edges:
        successors[s].append(d)
        indegree[d] += 1

    ready = [n for n, k in indegree.items() if not k]
    ending_at = dict.fromkeys(p.nodes, 0)  # best over the predecessors seen so far
    for node in ready:  # grows while it is read, in topological order
        rules = ending_at[node] = ending_at[node] + is_rule[node]
        for nxt in successors[node]:
            if rules > ending_at[nxt]:
                ending_at[nxt] = rules
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    if len(ready) < len(is_rule):
        return _simple_path_depth(is_rule, successors)
    return max(ending_at.values(), default=0)


def _simple_path_depth(is_rule: dict[str, int], successors: dict[str, list[str]]) -> int:
    """``proof_depth`` of a graph with a directed cycle: the most rule nodes
    on any simple path, found by enumerating every one of them."""
    best = 0
    for start in is_rule:
        stack = [(start, {start}, is_rule[start])]
        while stack:
            node, seen, rules = stack.pop()
            best = max(best, rules)
            for nxt in successors[node]:
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, rules + is_rule[nxt]))
    return best


def match_proofs(pred: ProofGraph, golds: list[ProofGraph]) -> tuple[bool, bool, bool]:
    """Exact-match flags (node_match, edge_match, proof_match) vs any gold.

    Node and edge matches may each be satisfied by different golds;
    proof_match needs a single gold matching on both sets.
    """
    if not golds:
        raise ValueError("empty gold proof list")
    node_match = any(pred.nodes == g.nodes for g in golds)
    edge_match = any(pred.edges == g.edges for g in golds)
    proof_match = any(pred.nodes == g.nodes and pred.edges == g.edges for g in golds)
    return node_match, edge_match, proof_match


def to_dot(p: ProofGraph, title: str = "proof") -> str:
    """Render as DOT text, one fixed style per node kind."""
    shapes = {FACT: "box", RULE: "ellipse", NAF_KIND: "diamond"}
    lines = [f'digraph "{title}" {{', "  rankdir=LR;"]
    for n in p.canonical_nodes():
        lines.append(f'  "{n}" [shape={shapes[node_kind(n)]}];')
    for s, d in p.canonical_edges():
        lines.append(f'  "{s}" -> "{d}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
