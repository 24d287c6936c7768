import random

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ctbn_sentry import (
    DiGraph,
    SimulationConfig,
    UGraph,
    ancestors,
    ancestral_subprocess,
    closure,
    condensation,
    ctbn_independent,
    graph_partition,
    induced_subgraph,
    is_ancestral,
    moralize,
    nonadjacent_scc_independence,
    parents,
    partition_independent,
    sample_ensemble,
    separated,
    strongly_connected_components,
)


def chain_graph():
    return DiGraph(("A", "B", "C"), (("A", "B"), ("B", "C")))


def plant_graph():
    """Ten monitored processes in four subsystems (the worked example used
    throughout the docs): sensors S1..S4 feed pair (P1, T1), which feeds
    (P2, T2), which feeds (P3, T3)."""
    nodes = ("P1", "T1", "P2", "T2", "P3", "T3", "S1", "S2", "S3", "S4")
    edges = (
        ("T1", "P1"), ("S4", "P1"),          # P1 depends on T1 and S4
        ("P1", "P2"), ("T2", "P2"),
        ("P2", "P3"), ("T3", "P3"),
        ("S1", "S2"), ("S2", "S3"), ("S3", "S4"),
    )
    return DiGraph(nodes, edges)


SYSTEMS = {
    "System1": {"P1", "T1"},
    "System2": {"P2", "T2"},
    "System3": {"P3", "T3"},
    "System4": {"S1", "S2", "S3", "S4"},
}


def six_process_graph():
    return DiGraph(
        ("A", "B", "C", "D", "E", "F"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "E"), ("E", "F")),
    )


# -- basic queries -----------------------------------------------------------------


def test_digraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        DiGraph(("A",), (("A", "A"),))
    with pytest.raises(ValueError):
        DiGraph(("A", "B"), (("A", "B"), ("A", "B")))
    with pytest.raises(ValueError):
        DiGraph(("A",), (("A", "B"),))


@pytest.mark.parametrize("nodes, edges, message", [
    (("A", "A"), (), "duplicate node names"),
    (("A",), (("A", "B"),), "references unknown node"),
    (("A",), (("A", "A"),), "self-loop at 'A'"),
])
def test_both_graphs_reject_bad_edges_alike(nodes, edges, message):
    for cls in (DiGraph, UGraph):
        with pytest.raises(ValueError, match=message):
            cls(nodes, edges)


def test_ugraph_merges_repeated_edges_and_digraph_keeps_order():
    ug = UGraph(("A", "B", "C"), (("A", "B"), ("B", "A"), ("A", "B"), ("C", "B")))
    assert ug.edges == {frozenset("AB"), frozenset("BC")}
    assert ug.neighbors_of("B") == {"A", "C"}
    g = DiGraph(("A", "B", "C"), (("C", "B"), ("A", "B"), ("B", "A")))
    assert g.edges == (("C", "B"), ("A", "B"), ("B", "A"))
    with pytest.raises(ValueError, match=r"duplicate edge \('A', 'B'\)"):
        DiGraph(("A", "B"), (("A", "B"), ("A", "B")))


def test_parents_and_closure():
    g = plant_graph()
    assert parents(g, {"P1"}) == {"T1", "S4"}
    assert parents(g, set()) == set()
    assert closure(g, {"P1"}) == {"P1", "T1", "S4"}
    c = chain_graph()
    assert closure(c, {"B"}) == {"A", "B"}
    assert parents(c, {"A", "B"}) == set()  # internal parents are excluded


def test_parents_unknown_node():
    with pytest.raises(ValueError):
        parents(chain_graph(), {"Z"})


def test_ancestors_and_ancestral():
    g = chain_graph()
    assert ancestors(g, {"B"}) == {"A", "B"}
    assert is_ancestral(g, {"A", "B"})
    assert not is_ancestral(g, {"B", "C"})
    assert is_ancestral(g, set(g.nodes))
    assert is_ancestral(g, set())


def test_induced_subgraph():
    g = chain_graph()
    assert induced_subgraph(g, {"A", "B", "C"}).edges == g.edges
    assert induced_subgraph(g, set()).nodes == ()
    iso = induced_subgraph(g, {"A", "C"})
    assert iso.nodes == ("A", "C") and iso.edges == ()


# -- moralization and separation ----------------------------------------------------


def test_moralize_collider():
    g = DiGraph(("A", "B", "C"), (("A", "C"), ("B", "C")))
    moral = moralize(g)
    assert moral.edges == {frozenset(p) for p in (("A", "C"), ("B", "C"), ("A", "B"))}


def test_moralize_chain_adds_nothing():
    moral = moralize(chain_graph())
    assert moral.edges == {frozenset(("A", "B")), frozenset(("B", "C"))}


def test_moralize_edgeless():
    assert moralize(DiGraph(("A", "B"), ())).edges == frozenset()


def test_separated_on_path():
    ug = UGraph(("A", "B", "C"), (("A", "B"), ("B", "C")))
    assert separated(ug, {"A"}, {"C"}, {"B"})
    assert not separated(ug, {"A"}, {"C"}, set())
    assert separated(ug, set(), {"C"}, {"B"})
    assert separated(ug, {"A"}, set(), set())


def test_separated_requires_disjoint():
    ug = UGraph(("A", "B"), (("A", "B"),))
    with pytest.raises(ValueError):
        separated(ug, {"A"}, {"A"}, set())


def _all_simple_paths(ug, a, b):
    out = []

    def walk(node, path):
        if node == b:
            out.append(path)
            return
        for nb in sorted(ug.neighbors_of(node)):
            if nb not in path:
                walk(nb, path + [nb])

    walk(a, [a])
    return out


def _brute_force_separated(ug, A, B, C):
    for a in A:
        for b in B:
            for path in _all_simple_paths(ug, a, b):
                if not any(node in C for node in path):
                    return False
    return True


def _random_ugraph(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return UGraph(nodes, edges)


def _random_disjoint_sets(rng, nodes, want_nonempty_ab=True):
    pool = list(nodes)
    rng.shuffle(pool)
    cut1 = rng.randint(1 if want_nonempty_ab else 0, max(1, len(pool) // 3))
    cut2 = cut1 + rng.randint(1 if want_nonempty_ab else 0, max(1, len(pool) // 3))
    cut3 = cut2 + rng.randint(0, max(0, len(pool) - cut2))
    return set(pool[:cut1]), set(pool[cut1:cut2]), set(pool[cut2:cut3])


def test_separated_matches_brute_force():
    rng = random.Random(2718)
    for _ in range(300):
        ug = _random_ugraph(rng)
        A, B, C = _random_disjoint_sets(rng, ug.nodes, want_nonempty_ab=False)
        assert separated(ug, A, B, C) == _brute_force_separated(ug, A, B, C)


# -- process-level independence -------------------------------------------------------


def test_ctbn_independent_chain():
    g = chain_graph()
    assert ctbn_independent(g, {"A"}, {"C"}, {"B"})
    assert not ctbn_independent(g, {"A"}, {"C"}, set())


def test_ctbn_independent_plant_systems():
    g = plant_graph()
    cert = ctbn_independent(g, {"P1", "T1"}, {"P3", "T3"},
                            {"P2", "T2", "S1", "S2", "S3", "S4"})
    assert cert.separated
    assert cert.ancestral_set == frozenset(g.nodes)
    # marriages: (T1,S4) share P1, (P1,T2) share P2, (P2,T3) share P3
    assert ("S4", "T1") in cert.moral_edges_added


def test_ctbn_independent_rejects_overlap():
    g = chain_graph()
    with pytest.raises(ValueError):
        ctbn_independent(g, {"A"}, {"A"}, set())


def test_certificate_json():
    import json

    cert = ctbn_independent(chain_graph(), {"A"}, {"C"}, {"B"})
    doc = json.loads(cert.to_json())
    assert doc["separated"] is True
    assert doc["A"] == ["A"] and doc["B"] == ["C"] and doc["C"] == ["B"]


# -- partitions -----------------------------------------------------------------------


def test_graph_partition_plant():
    part = graph_partition(plant_graph(), SYSTEMS)
    assert part.graph.nodes == ("System1", "System2", "System3", "System4")
    assert set(part.graph.edges) == {
        ("System4", "System1"), ("System1", "System2"), ("System2", "System3")}


def test_graph_partition_singletons_isomorphic():
    g = plant_graph()
    part = graph_partition(g, {n: {n} for n in g.nodes})
    assert set(part.graph.edges) == set(g.edges)


def test_graph_partition_single_block():
    g = chain_graph()
    part = graph_partition(g, {"all": set(g.nodes)})
    assert part.graph.nodes == ("all",) and part.graph.edges == ()


def test_graph_partition_validates_blocks():
    g = chain_graph()
    with pytest.raises(ValueError):
        graph_partition(g, {"x": {"A"}, "y": {"A", "B", "C"}})
    with pytest.raises(ValueError):
        graph_partition(g, {"x": {"A", "B"}})


def test_partition_independent_plant():
    cert = partition_independent(
        plant_graph(), SYSTEMS, {"System1"}, {"System3"}, {"System2", "System4"})
    assert cert.separated
    assert cert.a_nodes == {"P1", "T1"}
    assert cert.c_nodes == {"P2", "T2", "S1", "S2", "S3", "S4"}


def test_partition_independent_empty_a_vacuous():
    cert = partition_independent(plant_graph(), SYSTEMS, set(), {"System3"}, set())
    assert cert.separated


def test_partition_independent_adjacent_blocks_unconditioned():
    cert = partition_independent(
        plant_graph(), SYSTEMS, {"System1"}, {"System2"}, set())
    assert not cert.separated


def _random_digraph(rng, max_nodes=10, p=0.22):
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = [
        (u, v) for u in nodes for v in nodes
        if u != v and rng.random() < p
    ]
    return DiGraph(nodes, edges)


def test_partition_separation_implies_node_separation():
    # block-level separation must never claim more than the node level supports
    rng = random.Random(97)
    checked = 0
    for _ in range(250):
        g = _random_digraph(rng)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        block_count = rng.randint(1, len(nodes))
        blocks = {f"D{i}": set() for i in range(block_count)}
        for i, node in enumerate(nodes):
            blocks[f"D{rng.randrange(block_count)}" if i >= block_count
                   else f"D{i}"].add(node)
        blocks = {k: v for k, v in blocks.items() if v}
        names = list(blocks)
        rng.shuffle(names)
        a = {names[0]}
        b = {names[1]} if len(names) > 1 else set()
        c = set(names[2:2 + rng.randint(0, 2)])
        cert = partition_independent(g, blocks, a, b, c)
        if cert.separated:
            node_cert = ctbn_independent(g, cert.a_nodes, cert.b_nodes, cert.c_nodes)
            assert node_cert.separated
            checked += 1
    assert checked > 20


# -- condensation ----------------------------------------------------------------------


def test_condensation_six_process():
    cond = condensation(six_process_graph())
    assert set(cond.blocks.values()) == {
        frozenset({"A", "B", "C"}), frozenset({"D"}), frozenset({"E"}), frozenset({"F"})}
    assert set(cond.graph.edges) == {("A", "D"), ("D", "E"), ("E", "F")}


def test_condensation_acyclic_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        g = _random_digraph(rng)
        cond = condensation(g)
        bg = cond.graph
        # a topological order exists iff the block graph is acyclic
        indeg = {n: 0 for n in bg.nodes}
        for _, v in bg.edges:
            indeg[v] += 1
        frontier = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for child in bg.children_of(node):
                indeg[child] -= 1
                if indeg[child] == 0:
                    frontier.append(child)
        assert seen == len(bg.nodes)


def test_condensation_dag_is_singletons():
    g = chain_graph()
    cond = condensation(g)
    assert all(len(m) == 1 for m in cond.blocks.values())
    assert set(cond.graph.edges) == set(g.edges)


def test_condensation_empty_graph():
    cond = condensation(DiGraph(()))
    assert dict(cond.blocks) == {} and cond.graph.nodes == ()


def test_condensation_pure_cycle():
    g = DiGraph(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))
    cond = condensation(g)
    assert list(cond.blocks) == ["A"]
    assert cond.graph.edges == ()


def test_scc_matches_reachability_definition():
    rng = random.Random(12)
    graphs = [DiGraph(())] + [_random_digraph(rng, max_nodes=8) for _ in range(40)]
    for g in graphs:
        comps = strongly_connected_components(g)
        assert sorted(n for comp in comps for n in comp) == sorted(g.nodes)
        # components come in the order of their first node
        firsts = [min(g.nodes.index(n) for n in comp) for comp in comps]
        assert firsts == sorted(firsts)
        reach = {n: _reachable(g, n) for n in g.nodes}
        for comp in comps:
            for u in comp:
                for v in g.nodes:
                    together = v in comp
                    assert together == (v in reach[u] and u in reach[v])


def _reachable(g, start):
    seen = {start}
    stack = [start]
    while stack:
        for child in g.children_of(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


# -- non-adjacent component certificates -----------------------------------------------


def test_nonadjacent_scc_certificate():
    cert = nonadjacent_scc_independence(six_process_graph(), {"A", "B", "C"}, "E")
    assert cert.separating_nodes == {"D"}
    assert cert.node_certificate.separated


def test_nonadjacent_scc_isolated_nodes():
    g = DiGraph(("A", "B"), ())
    cert = nonadjacent_scc_independence(g, "A", "B")
    assert cert.separating_nodes == frozenset()
    assert cert.node_certificate.separated


def test_nonadjacent_scc_rejects_adjacent():
    with pytest.raises(ValueError):
        nonadjacent_scc_independence(six_process_graph(), {"A", "B", "C"}, "D")


def test_nonadjacent_scc_rejects_adjacent_in_either_order():
    # the edge C -> D leaves the first block: found from either end
    with pytest.raises(ValueError, match="are adjacent"):
        nonadjacent_scc_independence(six_process_graph(), "D", {"A", "B", "C"})


def test_nonadjacent_scc_prefers_smaller_side():
    # x -> a, y1..y3 -> b: conditioning on {x} beats conditioning on {y1..y3}
    g = DiGraph(("x", "a", "y1", "y2", "y3", "b"),
                (("x", "a"), ("y1", "b"), ("y2", "b"), ("y3", "b")))
    cert = nonadjacent_scc_independence(g, "a", "b")
    assert cert.separating_nodes == {"x"}


def test_nonadjacent_scc_random_certificates_verify():
    rng = random.Random(314)
    produced = 0
    for _ in range(200):
        g = _random_digraph(rng, max_nodes=8, p=0.18)
        cond = condensation(g)
        names = list(cond.blocks)
        if len(names) < 2:
            continue
        na, nb = rng.sample(names, 2)
        sa, sb = cond.blocks[na], cond.blocks[nb]
        adjacent = any(
            (u in sa and v in sb) or (u in sb and v in sa) for u, v in g.edges)
        if adjacent:
            continue
        cert = nonadjacent_scc_independence(g, na, nb)
        assert cert.node_certificate.separated
        produced += 1
    assert produced > 30


# -- restriction to an ancestral set: law preservation ----------------------------------


def test_ancestral_subprocess_preserves_marginal_law(chain3):
    # the restricted model and the full model's marginal on (A, B) must agree;
    # compare pooled event-time samples of those processes across ensembles
    keep = {"A", "B"}
    sub = ancestral_subprocess(chain3, keep)
    kept_idx = [j for j, name in enumerate(chain3.names) if name in keep]

    full = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(20.0, 4000, 501))
    restricted = sample_ensemble(sub, (0, 0), SimulationConfig(20.0, 4000, 502))

    def pooled_times(ensemble, processes):
        times = []
        for traj in ensemble:
            mask = np.isin(traj.processes, processes)
            times.append(traj.times[mask])
        return np.concatenate(times)

    full_times = pooled_times(full, kept_idx)
    sub_times = pooled_times(restricted, [0, 1])
    # event volume per trajectory must match closely too
    assert abs(len(full_times) - len(sub_times)) / len(full_times) < 0.02
    stat = ks_2samp(full_times[:30_000], sub_times[:30_000])
    assert stat.pvalue > 0.01
