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
from typing import Iterable

NAF = "NAF"

FACT = "fact"
RULE = "rule"
NAF_KIND = "naf"


def node_kind(node_id: str) -> str:
    """Classify a node id as 'fact', 'rule', or 'naf'."""
    if node_id == NAF:
        return NAF_KIND
    if len(node_id) >= 2 and node_id[0] in "FR" and node_id[1:].isdigit():
        return FACT if node_id[0] == "F" else RULE
    raise ValueError(f"malformed proof node id: {node_id!r}")


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
        return cls.of(d["nodes"], [tuple(e) for e in d["edges"]])


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
    for s, d in p.canonical_edges():
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


def proof_depth(p: ProofGraph) -> int:
    """Largest number of rule nodes on any simple directed path."""
    adjacency = {n: [] for n in p.nodes}
    for s, d in p.edges:
        adjacency[s].append(d)
    for n in adjacency:
        adjacency[n].sort(key=node_sort_key)

    best = 0
    for start in p.nodes:
        stack = [(start, {start}, 1 if node_kind(start) == RULE else 0)]
        while stack:
            node, seen, rules = stack.pop()
            best = max(best, rules)
            for nxt in adjacency[node]:
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, rules + (1 if node_kind(nxt) == RULE else 0)))
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
