"""Directed-graph queries for process dependence structure.

Covers parent/closure/ancestor queries, moralization, separation, graph
partitions, condensation into strongly connected components, and the
conditional-independence certificates those constructions license for
interacting event processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np


def _checked_edges(nodes: tuple[str, ...], edges: Iterable[tuple[str, str]],
                   directed: bool) -> list[tuple[str, str]]:
    """The edges of a graph on `nodes`, in order, each once: raises
    ``ValueError`` for a repeated node name, an edge to an unknown node, a
    self-loop, or, when `directed`, a repeated edge (an undirected graph
    merges repeats)."""
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValueError("duplicate node names")
    kept: dict[tuple[str, str], None] = {}
    for u, v in edges:
        if u not in node_set or v not in node_set:
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if directed and (u, v) in kept:
            raise ValueError(f"duplicate edge ({u!r}, {v!r})")
        kept[u, v] = None
    return list(kept)


class DiGraph:
    """Immutable directed graph; cycles allowed, self-loops and duplicates not."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.edges: tuple[tuple[str, str], ...] = tuple(_checked_edges(self.nodes, edges, True))
        self._parents: dict[str, set[str]] = {n: set() for n in self.nodes}
        self._children: dict[str, set[str]] = {n: set() for n in self.nodes}
        for u, v in self.edges:
            self._parents[v].add(u)
            self._children[u].add(v)

    def parents_of(self, node: str) -> frozenset:
        return frozenset(self._parents[node])

    def children_of(self, node: str) -> frozenset:
        return frozenset(self._children[node])

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def __repr__(self):
        return f"DiGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


class UGraph:
    """Immutable undirected graph without self-loops."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.edges: frozenset = frozenset(map(frozenset, _checked_edges(self.nodes, edges, False)))
        self._adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    def neighbors_of(self, node: str) -> frozenset:
        return frozenset(self._adj[node])

    def __contains__(self, node: str) -> bool:
        return node in self._adj

    def __repr__(self):
        return f"UGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def _check_nodes(g, A: Iterable[str]) -> frozenset:
    A = frozenset(A)
    missing = [a for a in A if a not in g]
    if missing:
        raise ValueError(f"unknown nodes: {sorted(missing)}")
    return A


# -- basic set queries -------------------------------------------------------


def parents(g: DiGraph, A: Iterable[str]) -> frozenset:
    """Union of the members' parents, excluding A itself."""
    A = _check_nodes(g, A)
    out: set[str] = set()
    for a in A:
        out |= g.parents_of(a)
    return frozenset(out - A)


def closure(g: DiGraph, A: Iterable[str]) -> frozenset:
    A = _check_nodes(g, A)
    return frozenset(A | parents(g, A))


def _reach(g: DiGraph | UGraph, A: Iterable[str], step) -> frozenset:
    """A together with every node reached from A by repeated ``step``."""
    A = _check_nodes(g, A)
    seen = set(A)
    stack = list(A)
    while stack:
        for n in step(stack.pop()):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return frozenset(seen)


def ancestors(g: DiGraph, A: Iterable[str]) -> frozenset:
    """A together with every node that has a directed path into A."""
    return _reach(g, A, g.parents_of)


def is_ancestral(g: DiGraph, A: Iterable[str]) -> bool:
    A = _check_nodes(g, A)
    return ancestors(g, A) == A


def descendants(g: DiGraph, A: Iterable[str]) -> frozenset:
    return _reach(g, A, g.children_of)


def induced_subgraph(g: DiGraph, A: Iterable[str]) -> DiGraph:
    """Subgraph on A keeping exactly the edges with both endpoints in A."""
    A = _check_nodes(g, A)
    nodes = tuple(n for n in g.nodes if n in A)
    edges = tuple((u, v) for u, v in g.edges if u in A and v in A)
    return DiGraph(nodes, edges)


# -- moralization and separation ----------------------------------------------


def moralize(g: DiGraph) -> UGraph:
    """Undirected skeleton plus an edge between every pair of co-parents."""
    edges: list[tuple[str, str]] = list(g.edges)
    for node in g.nodes:
        ps = sorted(g.parents_of(node))
        for i in range(len(ps)):
            for k in range(i + 1, len(ps)):
                edges.append((ps[i], ps[k]))
    return UGraph(g.nodes, edges)


def separated(ug: UGraph, A: Iterable[str], B: Iterable[str], C: Iterable[str]) -> bool:
    """True iff every path from A to B passes through C.

    Empty A or B is vacuously separated; empty C reduces to plain
    non-reachability.
    """
    A, B, C = (_check_nodes(ug, S) for S in (A, B, C))
    if (A & B) or (A & C) or (B & C):
        raise ValueError("A, B, C must be disjoint")
    return not _reach(ug, A, lambda n: ug.neighbors_of(n) - C) & B


@dataclass(frozen=True)
class SeparationCertificate:
    """Outcome of a separation query on the moralized ancestral subgraph.

    Truthy iff separation (and hence the conditional independence it
    certifies) holds.
    """

    a: frozenset
    b: frozenset
    c: frozenset
    separated: bool
    ancestral_set: frozenset
    moral_edges_added: tuple[tuple[str, str], ...]

    def __bool__(self) -> bool:
        return self.separated

    def to_json(self) -> str:
        return json.dumps({
            "A": sorted(self.a),
            "B": sorted(self.b),
            "C": sorted(self.c),
            "separated": self.separated,
            "ancestral_set": sorted(self.ancestral_set),
            "moral_edges_added": self.moral_edges_added,
        })


def ctbn_independent(g: DiGraph, A: Iterable[str], B: Iterable[str],
                     C: Iterable[str]) -> SeparationCertificate:
    """Separation of A and B by C in the moral graph of their ancestral subgraph.

    A true certificate guarantees that the processes in A and in B evolve
    independently through time given the processes in C.
    """
    A, B, C = (_check_nodes(g, S) for S in (A, B, C))
    if (A & B) or (A & C) or (B & C):
        raise ValueError("A, B, C must be disjoint")
    anc = ancestors(g, A | B | C)
    sub = induced_subgraph(g, anc)
    moral = moralize(sub)
    skeleton = {frozenset(e) for e in sub.edges}
    added = sorted(tuple(sorted(e)) for e in moral.edges if e not in skeleton)
    return SeparationCertificate(
        a=A, b=B, c=C,
        separated=separated(moral, A, B, C),
        ancestral_set=anc,
        moral_edges_added=tuple(added),
    )


# -- graph partitions and condensation ----------------------------------------


@dataclass(frozen=True)
class GraphPartition:
    """A quotient graph over a partition of the node set.

    ``blocks`` maps block names to member node sets; ``graph`` is the block
    graph, with an edge between two distinct blocks iff some underlying edge
    crosses between them.
    """

    blocks: Mapping[str, frozenset]
    graph: DiGraph

    def unroll(self, block_names: Iterable[str]) -> frozenset:
        out: set[str] = set()
        for name in block_names:
            out |= self.blocks[name]
        return frozenset(out)


def graph_partition(g: DiGraph, blocks: Mapping[str, Iterable[str]]) -> GraphPartition:
    """Quotient of g by the given blocks (which must partition the nodes)."""
    named = {name: frozenset(members) for name, members in blocks.items()}
    covered: set[str] = set()
    for name, members in named.items():
        if not members:
            raise ValueError(f"block {name!r} is empty")
        overlap = covered & members
        if overlap:
            raise ValueError(f"blocks overlap on {sorted(overlap)}")
        covered |= members
    missing = set(g.nodes) - covered
    extra = covered - set(g.nodes)
    if missing:
        raise ValueError(f"blocks do not cover nodes: {sorted(missing)}")
    if extra:
        raise ValueError(f"blocks mention unknown nodes: {sorted(extra)}")

    owner = {node: name for name, members in named.items() for node in members}
    block_edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for u, v in g.edges:
        bu, bv = owner[u], owner[v]
        if bu != bv and (bu, bv) not in seen:
            seen.add((bu, bv))
            block_edges.append((bu, bv))
    return GraphPartition(named, DiGraph(tuple(named), block_edges))


def strongly_connected_components(g: DiGraph) -> list[frozenset]:
    """The strongly connected components, in the order of their first node
    in ``g.nodes``."""
    import scipy.sparse as sp  # loaded on first use
    from scipy.sparse.csgraph import connected_components

    position = {node: i for i, node in enumerate(g.nodes)}
    n = len(g.nodes)
    tails, heads = np.array([[position[u], position[v]] for u, v in g.edges],
                            dtype=np.intp).reshape(-1, 2).T
    adjacency = sp.csr_matrix((np.ones(tails.size), (tails, heads)), shape=(n, n))
    _, labels = connected_components(adjacency, connection="strong")
    comps: dict[int, set[str]] = {}
    for node, label in zip(g.nodes, labels.tolist()):
        comps.setdefault(label, set()).add(node)
    return [frozenset(comp) for comp in comps.values()]


def condensation(g: DiGraph) -> GraphPartition:
    """Partition by strongly connected components; the block graph is acyclic.

    Blocks are named after their smallest member node and ordered by their
    first node in the declaration order, for reproducible output.
    """
    return graph_partition(g, {min(comp): comp for comp in strongly_connected_components(g)})


@dataclass(frozen=True)
class PartitionSeparationCertificate:
    """Block-level separation plus the node-level claim it implies."""

    block_certificate: SeparationCertificate
    a_nodes: frozenset
    b_nodes: frozenset
    c_nodes: frozenset

    @property
    def separated(self) -> bool:
        return self.block_certificate.separated

    def __bool__(self) -> bool:
        return self.separated


def partition_independent(
    g: DiGraph,
    blocks: Mapping[str, Iterable[str]],
    block_a: Iterable[str],
    block_b: Iterable[str],
    block_c: Iterable[str],
) -> PartitionSeparationCertificate:
    """Run the separation query inside a graph partition.

    A true answer certifies separation of the unrolled node sets in the
    underlying graph, and hence conditional independence of the corresponding
    process groups.
    """
    part = graph_partition(g, blocks)
    cert = ctbn_independent(part.graph, block_a, block_b, block_c)
    return PartitionSeparationCertificate(
        block_certificate=cert,
        a_nodes=part.unroll(cert.a),
        b_nodes=part.unroll(cert.b),
        c_nodes=part.unroll(cert.c),
    )


@dataclass(frozen=True)
class SccIndependenceCertificate:
    """Certificate that two non-adjacent components are independent given a
    separating set of whole components."""

    block_a: str
    block_b: str
    a_nodes: frozenset
    b_nodes: frozenset
    separating_blocks: frozenset
    separating_nodes: frozenset
    node_certificate: SeparationCertificate

    def __bool__(self) -> bool:
        return self.node_certificate.separated


def nonadjacent_scc_independence(g: DiGraph, block_a: str | Iterable[str],
                                 block_b: str | Iterable[str]) -> SccIndependenceCertificate:
    """Separating set for two strongly connected components with no direct edges.

    The certificate conditions on the parent blocks of whichever component is
    not a descendant of the other; when both choices are available the
    smaller separating set wins (ties go to block_b's parents).  Raises
    ``ValueError`` if the blocks are adjacent in g.
    """
    cond = condensation(g)

    def resolve(block) -> str:
        if isinstance(block, str) and block in cond.blocks:
            return block
        members = frozenset([block]) if isinstance(block, str) else frozenset(block)
        for name, comp in cond.blocks.items():
            if comp == members:
                return name
        raise ValueError(f"{block!r} is not a strongly connected component of the graph")

    name_a, name_b = resolve(block_a), resolve(block_b)
    if name_a == name_b:
        raise ValueError("blocks must be distinct")
    bg = cond.graph  # an edge of g between two components is an edge between their blocks
    if name_b in bg.parents_of(name_a) | bg.children_of(name_a):
        raise ValueError(f"components {name_a!r} and {name_b!r} are adjacent; no certificate")
    desc_a = descendants(bg, [name_a])
    desc_b = descendants(bg, [name_b])
    options = []  # at least one: the condensation is acyclic
    # when block_a is not downstream of block_b, the ancestral closure of
    # {a, b} + Pa(b) contains no descendant of b, so Pa(b) cuts b off entirely
    if name_a not in desc_b:
        options.append((frozenset(bg.parents_of(name_b)), "b"))
    if name_b not in desc_a:
        options.append((frozenset(bg.parents_of(name_a)), "a"))
    # smaller separating set first; ties favor conditioning on block_b's parents
    options.sort(key=lambda item: (len(cond.unroll(item[0])), item[1] != "b"))
    sep_blocks = options[0][0]
    sep_nodes = cond.unroll(sep_blocks)
    nodes_a, nodes_b = cond.blocks[name_a], cond.blocks[name_b]
    cert = ctbn_independent(g, nodes_a, nodes_b, sep_nodes)
    return SccIndependenceCertificate(
        block_a=name_a, block_b=name_b,
        a_nodes=nodes_a, b_nodes=nodes_b,
        separating_blocks=sep_blocks, separating_nodes=sep_nodes,
        node_certificate=cert,
    )


# -- DOT export ----------------------------------------------------------------


def _to_dot(kind: str, name: str, nodes: Iterable[str], edges: Iterable[Iterable[str]]) -> str:
    """DOT text of a ``digraph`` or ``graph``: the header, one statement per
    node and per edge, then ``}``.  Nodes and edge ends come as DOT text (an
    ID, or a node ID with its attributes)."""
    arrow = " -> " if kind == "digraph" else " -- "
    lines = [f"{kind} {name} {{", *(f"  {s};" for s in (*nodes, *map(arrow.join, edges))), "}"]
    return "\n".join(lines) + "\n"


_quoted = '"{}"'.format


def digraph_to_dot(g: DiGraph, name: str = "g") -> str:
    return _to_dot("digraph", name, map(_quoted, g.nodes), (map(_quoted, e) for e in g.edges))


def ugraph_to_dot(g: UGraph, name: str = "g") -> str:
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    return _to_dot("graph", name, map(_quoted, g.nodes), (map(_quoted, e) for e in edges))


def partition_to_dot(part: GraphPartition, name: str = "partition") -> str:
    nodes = []
    for block, members in part.blocks.items():
        label = block + r"\n{" + ", ".join(sorted(members)) + "}"
        nodes.append(f'"{block}" [label="{label}"]')
    return _to_dot("digraph", name, nodes, (map(_quoted, e) for e in part.graph.edges))
