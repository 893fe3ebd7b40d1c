"""Exact edge decoding under typing, node-consistency, and connectivity.

Nodes are fixed first by thresholding the node probabilities. Over the
selected nodes, the score of an assignment is the sum of
``phi*e + (1-phi)*(1-e)`` across unmasked ordered pairs (both endpoints
selected, target a rule, no self-loops). The unconstrained optimum keeps
exactly the pairs with phi > 0.5; when the result must be connected in
the undirected sense, the cheapest repair is a minimum spanning tree
over the disconnected components, using for each component pair the
crossing pair whose flip costs least (1 - 2*phi). Extra edges can only
help connectivity and never improve the separable objective, so the
repaired assignment is provably optimal.

The global constraints that an integer program would enforce are thus
met exactly without a solver. Connectivity is witnessed by an explicit
feasible flow on an augmented graph with a source feeding |N| units into
an anchor node and every node draining one unit to a sink; such a flow
exists exactly when the graph is connected. ``flow_certificate`` builds
one for a decoded proof and ``verify_flow`` checks it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .potentials import Potentials
from .proofgraph import NAF, ProofGraph

SOURCE = "source"
SINK = "sink"


class ConnectivityInfeasible(ValueError):
    """No unmasked pair can join some component of the selected nodes."""


@dataclass(frozen=True)
class SolverStats:
    pairs_considered: int
    components_before_repair: int
    repair_edges_added: int
    elapsed_s: float


@dataclass(frozen=True)
class DecodeResult:
    proof: ProofGraph
    objective: float
    connectivity_relaxed: bool
    stats: SolverStats


def select_nodes(node_prob: np.ndarray) -> list[int]:
    """Indices at or above 0.5; falls back to the argmax when none qualify."""
    selected = [i for i, p in enumerate(node_prob) if p >= 0.5]
    if selected:
        return selected
    return [int(np.argmax(node_prob))]


def _id_for_index(index: int, num_facts: int, size: int) -> str:
    if index == size - 1:
        return NAF
    if index < num_facts:
        return f"F{index + 1}"
    return f"R{index - num_facts + 1}"


def allowed_pairs(selected: list[int], num_facts: int, size: int) -> list[tuple[int, int]]:
    """Unmasked ordered pairs: both selected, distinct, target a rule."""
    rules = [n for n in selected if num_facts <= n < size - 1]
    return [(m, n) for n in rules for m in selected if m != n]


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


def _components(selected: list[int], edges: set[tuple[int, int]]) -> list[list[int]]:
    uf = _UnionFind(selected)
    for m, n in edges:
        uf.union(m, n)
    groups: dict[int, list[int]] = {}
    for n in selected:
        groups.setdefault(uf.find(n), []).append(n)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _objective(pairs: list[tuple[int, int]], edge_prob: np.ndarray,
               chosen: set[tuple[int, int]]) -> float:
    total = 0.0
    for m, n in pairs:
        phi = float(edge_prob[m, n])
        total += phi if (m, n) in chosen else 1.0 - phi
    return total


def decode_proof(p: Potentials, connectivity: bool = True) -> DecodeResult:
    """Certified-optimal edge assignment over the selected nodes.

    Raises ConnectivityInfeasible when connectivity is requested but no
    unmasked pair can join some component; the caller may re-decode with
    connectivity off and flag the result as relaxed.
    """
    start = time.perf_counter()
    selected = select_nodes(p.node_prob)
    pairs = allowed_pairs(selected, p.num_facts, p.size)
    chosen = {(m, n) for m, n in pairs if p.edge_prob[m, n] > 0.5}
    repairs = 0
    components = _components(selected, chosen)
    component_count = len(components)

    if connectivity and component_count > 1:
        repair_edges = _repair_edges(components, pairs, p.edge_prob)
        chosen |= repair_edges
        repairs = len(repair_edges)

    objective = _objective(pairs, p.edge_prob, chosen)
    proof = ProofGraph.of(
        [_id_for_index(n, p.num_facts, p.size) for n in selected],
        [
            (_id_for_index(m, p.num_facts, p.size), _id_for_index(n, p.num_facts, p.size))
            for m, n in chosen
        ],
    )
    stats = SolverStats(len(pairs), component_count, repairs, time.perf_counter() - start)
    return DecodeResult(proof, objective, not connectivity, stats)


def _repair_edges(components: list[list[int]], pairs: list[tuple[int, int]],
                  edge_prob: np.ndarray) -> set[tuple[int, int]]:
    """Minimum spanning tree over components using cheapest crossing pairs.

    The cost of turning on a prefer-off pair is 1 - 2*phi, taken over
    both directions between two components; ties break toward the
    lexicographically smallest ordered pair.
    """
    comp_of = {}
    for ci, comp in enumerate(components):
        for n in comp:
            comp_of[n] = ci

    best: dict[tuple[int, int], tuple[float, tuple[int, int]]] = {}
    for m, n in sorted(pairs):
        cm, cn = comp_of[m], comp_of[n]
        if cm == cn:
            continue
        key = (min(cm, cn), max(cm, cn))
        cost = 1.0 - 2.0 * float(edge_prob[m, n])
        if key not in best or (cost, (m, n)) < best[key]:
            best[key] = (cost, (m, n))

    candidates = sorted(
        (cost, pair, key) for key, (cost, pair) in best.items()
    )
    uf = _UnionFind(range(len(components)))
    repair: set[tuple[int, int]] = set()
    for cost, pair, (ci, cj) in candidates:
        if uf.union(ci, cj):
            repair.add(pair)
    if len(repair) != len(components) - 1:
        raise ConnectivityInfeasible(
            f"{len(components)} components cannot be joined by unmasked pairs")
    return repair


def decode_with_fallback(p: Potentials, connectivity: bool = True) -> DecodeResult:
    """decode_proof, relaxing connectivity when it cannot be satisfied."""
    try:
        return decode_proof(p, connectivity)
    except ConnectivityInfeasible:
        result = decode_proof(p, connectivity=False)
        return replace(result, connectivity_relaxed=True)


def decode_unconstrained(p: Potentials) -> DecodeResult:
    """Ablation decoder: threshold every ordered pair except self-loops.

    No typing, no node consistency, no connectivity; node selection still
    applies so the result has a node set, but edges may be structurally
    invalid. Only for comparison against the constrained decoder.
    """
    start = time.perf_counter()
    selected = select_nodes(p.node_prob)
    size = p.size
    pairs = [(m, n) for m in range(size) for n in range(size) if m != n]
    chosen = {(m, n) for m, n in pairs if p.edge_prob[m, n] > 0.5}
    objective = _objective(pairs, p.edge_prob, chosen)
    proof = ProofGraph.of(
        [_id_for_index(n, p.num_facts, size) for n in selected],
        [
            (_id_for_index(m, p.num_facts, size), _id_for_index(n, p.num_facts, size))
            for m, n in chosen
        ],
    )
    stats = SolverStats(len(pairs), 0, 0, time.perf_counter() - start)
    return DecodeResult(proof, objective, True, stats)


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
