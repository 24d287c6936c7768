"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run at fixed seeds, so outcomes are reproducible.
"""

import math
import random
import time

import numpy as np

from ctbn_sentry import (
    DiGraph,
    SimulationConfig,
    UGraph,
    amalgamate,
    build_state_space_graph,
    compare_rednt_vs_naive,
    condensation,
    ctbn_independent,
    ednt_exact,
    ednt_mc,
    experiment_spec,
    is_ancestral,
    partition_independent,
    rank_sentry_states,
    rednt,
    sample_ensemble,
    separated,
    state_at,
    state_index,
    transient_distribution,
)
from ctbn_sentry.cli import main as cli_main
from conftest import make_random_model, toggler_model


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1. closed-form discounted transition count -----------------------------------


def test_criterion_1_closed_form_ednt():
    start = time.perf_counter()
    q, alpha = 2.0, 0.5
    model = toggler_model(q)
    exact = ednt_exact(model, alpha)
    exact_ok = np.abs(exact - 4.0).max() < 1e-9

    table = ednt_mc(model, alpha, SimulationConfig(40.0, 100_000, 1717), states=[(0,)])
    est, se = float(table.estimates[0]), float(table.stderrs[0])
    mc_ok = abs(est - 4.0) <= 3 * se
    elapsed = time.perf_counter() - start
    _report(
        1, "closed-form EDNT",
        exact_ok and mc_ok and elapsed < 30.0,
        f"exact={exact[0]:.12f}, mc={est:.4f}±{se:.4f} "
        f"(|Δ|={abs(est - 4.0):.4f} ≤ 3se={3 * se:.4f}), {elapsed:.1f}s < 30s",
    )


# -- 2. Monte Carlo agrees with the linear solve -----------------------------------


def test_criterion_2_mc_exact_agreement(chain3):
    start = time.perf_counter()
    failures = []
    checked = 0

    def check(model, alpha, t_end, n, seed, label):
        nonlocal checked
        exact = ednt_exact(model, alpha)
        table = ednt_mc(model, alpha, SimulationConfig(t_end, n, seed))
        for idx, est, se in zip(table.state_indices, table.estimates, table.stderrs):
            checked += 1
            if abs(est - exact[idx]) > 3 * max(se, 1e-12):
                failures.append(f"{label} state {idx}: {est:.4f} vs {exact[idx]:.4f}")

    check(chain3, 0.1, 140.0, 1000, 801, "chain3")  # e^(-14) truncation
    rng = random.Random(4242)
    for k in range(5):
        model = make_random_model(rng, max_states=16)
        check(model, 0.25, 56.0, 600, 900 + k, f"random{k}")

    elapsed = time.perf_counter() - start
    _report(
        2, "MC-vs-exact agreement",
        not failures and elapsed < 120.0,
        f"{checked} states within 3se "
        f"({len(failures)} exceptions{': ' + '; '.join(failures) if failures else ''}), "
        f"{elapsed:.1f}s < 120s",
    )


# -- 3. relative-value arithmetic on the reference table ---------------------------


def test_criterion_3_rednt_reference_values(chain3):
    from test_sentry import REFERENCE_EDNT, REFERENCE_REDNT

    gs = build_state_space_graph(chain3)
    ednt = np.empty(8)
    for state, value in REFERENCE_EDNT.items():
        ednt[state_index(state, chain3)] = value
    ranking = rednt(ednt, gs)
    worst = 0.0
    for state, expected in REFERENCE_REDNT.items():
        got = ranking.value_of(state_index(state, chain3))
        worst = max(worst, abs(got - expected))
    _report(3, "REDNT reference arithmetic", worst <= 1e-3,
            f"max deviation {worst:.6f} ≤ 0.001 over all 8 states "
            f"(top ratio {ranking.value_of(4):.6f})")


# -- 4. three-process chain ranking across the discount sweep -----------------------


def test_criterion_4_chain3_ranking(chain3):
    tops = {}
    gs = build_state_space_graph(chain3)
    for alpha in (0.05, 0.1, 0.5):
        ranking = rednt(ednt_exact(chain3, alpha), gs)
        tops[alpha] = rank_sentry_states(ranking, 1)[0]
    ok = all(top == (1, 0, 0) for top in tops.values())
    _report(4, "chain3 sentry ranking", ok,
            f"top state by alpha: {{{', '.join(f'{a}: {t}' for a, t in tops.items())}}}")


# -- 5. six-process cycle+chain ranking ----------------------------------------------


def test_criterion_5_six_process_ranking():
    spec = experiment_spec("cycle-chain6")
    model = spec.build_model()
    gs = build_state_space_graph(model)
    ranking = rednt(ednt_exact(model, spec.alpha), gs)
    ranked = rank_sentry_states(ranking, 1)
    _report(5, "cycle-chain6 sentry ranking", ranked[0] == (0, 0, 1, 0, 0, 0),
            f"top low-activity state {ranked[0]}, "
            f"rednt={ranking.value_of(state_index(ranked[0], model)):.3f}")


# -- 6. agreement between the discounted and the naive rankings ----------------------


def test_criterion_6_rednt_vs_naive_all_shapes():
    start = time.perf_counter()
    results = {}
    for name in ("chain3", "chain5", "cycle5", "fork5", "cycle-chain6", "complex9"):
        spec = experiment_spec(name)
        model = spec.build_model()
        ensemble = sample_ensemble(model, None, SimulationConfig(spec.t_end, 10_000, spec.seed))
        outcome = compare_rednt_vs_naive(
            model, ensemble, k_range=[2], alpha=spec.alpha, min_cascade_length=2)
        results[name] = dict(outcome.jaccard)[2]
    elapsed = time.perf_counter() - start
    ok = all(j >= 1 / 3 for j in results.values()) and elapsed < 600.0
    _report(6, "REDNT vs naive Jaccard@2", ok,
            f"{{{', '.join(f'{n}: {j:.3f}' for n, j in results.items())}}} "
            f"all ≥ 1/3, {elapsed:.1f}s < 600s")


# -- 7. sampler matches the flattened chain's transient law --------------------------


def test_criterion_7_transient_distribution(chain3):
    n = 100_000
    t = 1.0
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(t, n, 321))
    counts = np.zeros(8)
    for traj in ensemble:
        counts[state_index(state_at(traj, t), chain3)] += 1
    empirical = counts / n
    p0 = np.zeros(8)
    p0[0] = 1.0
    expected = transient_distribution(amalgamate(chain3), p0, t)
    worst_z = 0.0
    for p_hat, p in zip(empirical, expected):
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        worst_z = max(worst_z, abs(p_hat - p) / se)
    _report(7, "transient law agreement", worst_z <= 4.0,
            f"worst per-state deviation {worst_z:.2f}se ≤ 4se over {n} trajectories")


# -- 8. graph query suite --------------------------------------------------------------


def _plant_graph():
    nodes = ("P1", "T1", "P2", "T2", "P3", "T3", "S1", "S2", "S3", "S4")
    edges = (("T1", "P1"), ("S4", "P1"), ("P1", "P2"), ("T2", "P2"),
             ("P2", "P3"), ("T3", "P3"), ("S1", "S2"), ("S2", "S3"), ("S3", "S4"))
    return DiGraph(nodes, edges)


_SYSTEMS = {
    "System1": {"P1", "T1"},
    "System2": {"P2", "T2"},
    "System3": {"P3", "T3"},
    "System4": {"S1", "S2", "S3", "S4"},
}


def _random_ugraph(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    return UGraph(nodes, edges)


def _brute_force_separated(ug, A, B, C):
    def paths(a, b):
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

    for a in A:
        for b in B:
            for path in paths(a, b):
                if not any(node in C for node in path):
                    return False
    return True


def test_criterion_8_graph_suite(chain3):
    start = time.perf_counter()
    parts = {}

    g = _plant_graph()
    block_cert = partition_independent(
        g, _SYSTEMS, {"System1"}, {"System3"}, {"System2", "System4"})
    node_cert = ctbn_independent(g, {"P1", "T1"}, {"P3", "T3"},
                                 {"P2", "T2", "S1", "S2", "S3", "S4"})
    parts["plant query"] = block_cert.separated and node_cert.separated

    six = experiment_spec("cycle-chain6").graph()
    cond = condensation(six)
    bg = cond.graph
    indeg = {n: 0 for n in bg.nodes}
    for _, v in bg.edges:
        indeg[v] += 1
    order = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while order:
        node = order.pop()
        seen += 1
        for child in bg.children_of(node):
            indeg[child] -= 1
            if indeg[child] == 0:
                order.append(child)
    parts["condensation"] = len(cond.blocks) == 4 and seen == 4

    from ctbn_sentry import ctbn_graph

    cg = ctbn_graph(chain3)
    parts["ancestral"] = is_ancestral(cg, {"A", "B"}) and not is_ancestral(cg, {"B", "C"})

    rng = random.Random(5150)
    mismatches = 0
    for _ in range(1000):
        ug = _random_ugraph(rng)
        pool = list(ug.nodes)
        rng.shuffle(pool)
        c1 = rng.randint(0, len(pool) // 3)
        c2 = c1 + rng.randint(0, len(pool) // 3)
        c3 = c2 + rng.randint(0, len(pool) - c2)
        A, B, C = set(pool[:c1]), set(pool[c1:c2]), set(pool[c2:c3])
        if separated(ug, A, B, C) != _brute_force_separated(ug, A, B, C):
            mismatches += 1
    parts["separation brute force"] = mismatches == 0

    elapsed = time.perf_counter() - start
    ok = all(parts.values()) and elapsed < 60.0
    _report(8, "graph suite", ok,
            f"{{{', '.join(f'{k}: {v}' for k, v in parts.items())}}}, "
            f"{elapsed:.1f}s < 60s")


# -- 9. block-level separation never overclaims ------------------------------------------


def test_criterion_9_partition_soundness():
    rng = random.Random(6006)
    violations = 0
    positives = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        nodes = tuple(f"n{i}" for i in range(n))
        edges = [(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < 0.22]
        g = DiGraph(nodes, edges)
        pool = list(nodes)
        rng.shuffle(pool)
        block_count = rng.randint(1, n)
        blocks: dict[str, set] = {f"D{i}": set() for i in range(block_count)}
        for i, node in enumerate(pool):
            target = i if i < block_count else rng.randrange(block_count)
            blocks[f"D{target}"].add(node)
        blocks = {k: v for k, v in blocks.items() if v}
        names = list(blocks)
        rng.shuffle(names)
        a = {names[0]}
        b = {names[1]} if len(names) > 1 else set()
        c = set(names[2:2 + rng.randint(0, 2)])
        cert = partition_independent(g, blocks, a, b, c)
        if cert.separated:
            positives += 1
            if not ctbn_independent(g, cert.a_nodes, cert.b_nodes, cert.c_nodes):
                violations += 1
    _report(9, "partition-separation soundness", violations == 0,
            f"{positives} positive certificates re-checked at node level, "
            f"{violations} violations")


# -- 10. experiment bundles are byte-stable -----------------------------------------------


def test_criterion_10_experiment_determinism(tmp_path):
    args = ["experiment", "chain3", "--seed", "11", "--trajectories", "800",
            "--t-end", "30", "--display-trajectories", "3"]
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names_a)
    _report(10, "experiment determinism", identical,
            f"{len(names_a)} bundle files byte-identical across repeated runs")
