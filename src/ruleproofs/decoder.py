"""Exact edge decoding under typing, node-consistency, and connectivity.

The decoder reads a ``Potentials`` as the JSON lists it was read from:
node probabilities and rows of edge probabilities phi, indexed by the
layout of ``theory.layout_ids``. Nodes are fixed first by thresholding
the node probabilities. Over the selected nodes, the score of an
assignment is the sum of ``phi*e + (1-phi)*(1-e)`` across the pairs that
``potentials.allowed_pairs`` allows (both endpoints selected, target a
rule, no self-loops); the edge mask and the lexical scorer take their
cells from the same function. The unconstrained optimum keeps exactly
the pairs with phi > 0.5. When the result must be connected in the
undirected sense, the cheapest repair is one Kruskal pass: a union-find
seeded with the thresholded edges takes the leftover pairs in order of
flip cost (1 - 2*phi), ties toward the smallest ordered pair, and keeps
each pair that joins two components. Extra edges can only help
connectivity and never improve the separable objective, so the repaired
assignment is optimal among the connected ones over the selected nodes.

Connectivity is witnessed by an explicit feasible flow on an augmented
graph with a source feeding |N| units into an anchor node and every node
draining one unit to a sink; such a flow exists exactly when the graph is
connected. ``flow_certificate`` builds one for a decoded proof and
``verify_flow`` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .potentials import Potentials, allowed_pairs
from .proofgraph import ProofGraph
from .theory import layout_ids

SOURCE = "source"
SINK = "sink"


class ConnectivityInfeasible(ValueError):
    """No unmasked pair can join some component of the selected nodes."""


@dataclass(frozen=True)
class RepairStats:
    repair_edges_added: int


@dataclass(frozen=True)
class DecodeResult:
    proof: ProofGraph
    objective: float
    connectivity_relaxed: bool
    stats: RepairStats


def select_nodes(node_prob: list[float]) -> list[int]:
    """Indices at or above 0.5; falls back to the index of the first
    maximum when none qualify."""
    selected = [i for i, p in enumerate(node_prob) if p >= 0.5]
    if selected:
        return selected
    return [node_prob.index(max(node_prob))]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _result(p: Potentials, phi: list[list[float]], selected: list[int],
            pairs: list[tuple[int, int]], chosen: set[tuple[int, int]],
            relaxed: bool, repairs: int) -> DecodeResult:
    """The proof over ``selected`` with edges ``chosen``, scored on ``pairs``
    of the edge probabilities ``phi`` (``p.edge_prob``)."""
    objective = 0.0
    for m, n in pairs:
        objective += phi[m][n] if (m, n) in chosen else 1.0 - phi[m][n]
    ids = layout_ids(p.num_facts, p.size)
    proof = ProofGraph(frozenset([ids[n] for n in selected]),
                       frozenset([(ids[m], ids[n]) for m, n in chosen]))
    return DecodeResult(proof, objective, relaxed, RepairStats(repairs))


def decode_proof(p: Potentials, connectivity: bool = True) -> DecodeResult:
    """The optimal edge assignment over the selected nodes: the pairs with
    phi > 0.5, plus one Kruskal repair when connectivity is requested.

    Raises ConnectivityInfeasible when connectivity is requested but no
    unmasked pair can join some component; the caller may re-decode with
    connectivity off and flag the result as relaxed.
    """
    selected = select_nodes(p.node_prob)
    pairs = allowed_pairs(selected, p.num_facts, p.size)
    phi = p.edge_prob
    chosen = {(m, n) for m, n in pairs if phi[m][n] > 0.5}
    repair = _repair_edges(selected, pairs, chosen, phi) if connectivity else set()
    return _result(p, phi, selected, pairs, chosen | repair, not connectivity, len(repair))


def _repair_edges(selected: list[int], pairs: list[tuple[int, int]],
                  chosen: set[tuple[int, int]], phi: list[list[float]]) -> set[tuple[int, int]]:
    """Kruskal's pass from the components of ``chosen``: the leftover pairs,
    cheapest flip (1 - 2*phi) first and ties toward the smallest ordered
    pair, each kept when it joins two components."""
    uf = _UnionFind(selected)
    components = len(selected) - sum(uf.union(m, n) for m, n in chosen)
    repair: set[tuple[int, int]] = set()
    if components > 1:
        leftover = sorted((1.0 - 2.0 * phi[m][n], (m, n))
                          for m, n in pairs if (m, n) not in chosen)
        for _cost, (m, n) in leftover:
            if uf.union(m, n):
                repair.add((m, n))
                components -= 1
    if components > 1:
        raise ConnectivityInfeasible(
            f"{components} components remain after every unmasked pair is tried")
    return repair


def decode_with_fallback(p: Potentials, connectivity: bool = True) -> DecodeResult:
    """decode_proof, relaxing connectivity when it cannot be satisfied."""
    try:
        return decode_proof(p, connectivity)
    except ConnectivityInfeasible:
        return decode_proof(p, connectivity=False)


def decode_unconstrained(p: Potentials) -> DecodeResult:
    """Ablation decoder: threshold every ordered pair except self-loops.

    No typing, no node consistency, no connectivity; node selection still
    applies so the result has a node set, but edges may be structurally
    invalid. Only for comparison against the constrained decoder.
    """
    selected = select_nodes(p.node_prob)
    pairs = [(m, n) for m in range(p.size) for n in range(p.size) if m != n]
    phi = p.edge_prob
    chosen = {(m, n) for m, n in pairs if phi[m][n] > 0.5}
    return _result(p, phi, selected, pairs, chosen, True, 0)


# ---------------------------------------------------------------------------
# Flow certificates for connectivity
# ---------------------------------------------------------------------------

def flow_certificate(proof: ProofGraph) -> Optional[dict[tuple[str, str], float]]:
    """Feasible flow of value |N| on the augmented graph, or None.

    One unit is routed from the anchor (the canonically first node) to
    every node along an undirected spanning tree of the proof's edges,
    and every node forwards one unit to the sink. Returns None when the
    graph is disconnected.
    """
    nodes = proof.canonical_nodes()
    if not nodes:
        return None
    anchor = nodes[0]
    adjacency = {n: set() for n in nodes}
    for s, d in proof.edges:
        adjacency[s].add(d)
        adjacency[d].add(s)

    parent: dict[str, Optional[str]] = {anchor: None}
    order = [anchor]
    frontier = [anchor]
    while frontier:
        current = frontier.pop(0)
        for neighbor in sorted(adjacency[current]):
            if neighbor not in parent:
                parent[neighbor] = current
                order.append(neighbor)
                frontier.append(neighbor)
    if len(parent) != len(nodes):
        return None

    subtree = {n: 1 for n in nodes}
    for node in reversed(order):
        if parent[node] is not None:
            subtree[parent[node]] += subtree[node]

    flow: dict[tuple[str, str], float] = {(SOURCE, anchor): float(len(nodes))}
    for node in nodes:
        flow[(node, SINK)] = 1.0
        if parent[node] is not None:
            flow[(parent[node], node)] = float(subtree[node])
    return flow


def verify_flow(proof: ProofGraph, flow: Optional[dict[tuple[str, str], float]]) -> bool:
    """Check capacities, conservation, source saturation, and edge coupling.

    Capacities follow the augmented graph: |N| from the source into the
    anchor, one unit from every node to the sink, |N| between any two
    distinct nodes of the proof, and zero elsewhere. A missing flow
    (``flow_certificate`` returned None) is rejected.
    """
    nodes = proof.canonical_nodes()
    if flow is None or not nodes:
        return False
    n_count = float(len(nodes))
    anchor = nodes[0]

    def capacity(m: str, n: str) -> float:
        if m == SOURCE and n == anchor:
            return n_count
        if m in proof.nodes and n == SINK:
            return 1.0
        if m in proof.nodes and n in proof.nodes and m != n:
            return n_count
        return 0.0

    for (m, n), value in flow.items():
        if value < -1e-9 or value > capacity(m, n) + 1e-9:
            return False

    if abs(flow.get((SOURCE, anchor), 0.0) - n_count) > 1e-9:
        return False

    for node in nodes:
        inflow = sum(v for (m, n), v in flow.items() if n == node)
        outflow = sum(v for (m, n), v in flow.items() if m == node)
        if abs(inflow - outflow) > 1e-9:
            return False

    sink_in = sum(v for (m, n), v in flow.items() if n == SINK)
    if abs(sink_in - n_count) > 1e-9:
        return False

    for (m, n), value in flow.items():
        if m in proof.nodes and n in proof.nodes and value > 1e-9:
            coupled = ((m, n) in proof.edges) + ((n, m) in proof.edges)
            if coupled < value / n_count - 1e-9:
                return False
    return True
