import itertools
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctbn_sentry import (
    Cim,
    CtbnModel,
    DENSE_BYTES_CAP,
    DiGraph,
    InvalidModelError,
    ProcessSpec,
    StateSpaceCapError,
    StateSpaceGraph,
    amalgamate,
    ancestral_subprocess,
    build_replicator_ctbn,
    build_state_space_graph,
    ctbn_graph,
    enumerate_states,
    experiment_spec,
    intensity_matrix,
    load_model,
    local_rate,
    low_activity_states,
    model_from_json_dict,
    model_to_dot,
    model_to_json_dict,
    require_valid,
    save_model,
    state_from_index,
    state_index,
    state_space_to_dot,
    transient_distribution,
    validate_model,
)
from conftest import (
    CHAIN3_A,
    independent_togglers,
    make_random_model,
    toggler_model,
    zero_rate_model,
)
from ctbn_sentry.model import state_bits, state_indices, states_from_indices

GOLDEN = Path(__file__).resolve().parent / "golden"


def binary3():
    return CtbnModel(
        tuple(ProcessSpec(n, 2) for n in "XYZ"),
        tuple(Cim([[[-1.0, 1.0], [1.0, -1.0]]]) for _ in range(3)),
        initial_state=(0, 0, 0),
    )


# -- validation ---------------------------------------------------------------


def test_chain3_is_valid(chain3):
    assert validate_model(chain3) == []


def test_bad_row_sum_reported(chain3):
    bad = CtbnModel(
        chain3.processes,
        (Cim([[[-0.5, 1.0], [5.0, -5.0]]]), chain3.cims[1], chain3.cims[2]),
        initial_state=(0, 0, 0),
    )
    violations = validate_model(bad)
    assert len(violations) == 1
    assert violations[0].code == "row-sum"


def test_dangling_parent_reported(chain3):
    bad = CtbnModel(
        (ProcessSpec("A", 2), ProcessSpec("B", 2, ("Missing",)), ProcessSpec("C", 2, ("B",))),
        chain3.cims,
        initial_state=(0, 0, 0),
    )
    codes = [v.code for v in validate_model(bad)]
    assert codes == ["dangling-parent"]


def test_negative_rate_and_positive_diagonal_reported():
    bad = CtbnModel(
        (ProcessSpec("X", 2),),
        (Cim([[[15.0, -15.0], [1.0, -1.0]]]),),  # transposed signs in row 0
        initial_state=(0,),
    )
    codes = {v.code for v in validate_model(bad)}
    assert codes == {"negative-rate", "positive-diagonal"}


def test_self_parent_and_duplicate_name():
    bad = CtbnModel(
        (ProcessSpec("X", 2, ("X",)), ProcessSpec("X", 2)),
        (Cim([[[-1.0, 1.0], [1.0, -1.0]]]), Cim([[[-1.0, 1.0], [1.0, -1.0]]])),
        initial_state=(0, 0),
    )
    codes = {v.code for v in validate_model(bad)}
    assert "self-parent" in codes and "duplicate-name" in codes


def test_cim_shape_mismatch(chain3):
    bad = CtbnModel(
        chain3.processes,
        (chain3.cims[0], Cim(CHAIN3_A), chain3.cims[2]),  # B needs two configs
        initial_state=(0, 0, 0),
    )
    assert any(v.code == "cim-shape" for v in validate_model(bad))


def test_absorbing_state_is_warning_only():
    model = zero_rate_model()
    assert validate_model(model) == []
    warnings = validate_model(model, include_warnings=True)
    assert warnings and all(v.severity == "warning" for v in warnings)


def test_initial_state_is_not_truncated(chain3):
    model = CtbnModel(chain3.processes, chain3.cims, initial_state=(0, 1.7, 0))
    assert model.initial_state == (0, 1.7, 0)
    assert [(v.code, v.message) for v in validate_model(model)] == [
        ("initial", "initial state: local state 1.7 is not an integer")]
    doc = model_to_json_dict(chain3)
    doc["initial_state"] = [0, 1.5, 0.9]
    loaded = model_from_json_dict(doc)
    assert loaded.initial_state == (0, 1.5, 0.9)
    assert [v.code for v in validate_model(loaded)] == ["initial"]
    # integers of any type are kept, as Python ints
    exact = CtbnModel(chain3.processes, chain3.cims, initial_state=np.array([0, 1, 1]))
    assert exact.initial_state == (0, 1, 1) and type(exact.initial_state[1]) is int
    assert validate_model(exact) == []


@pytest.mark.parametrize("state, message", [
    ((0, 0), "state has 2 entries, model has 3 processes"),
    ((0, 2, 0), "local state 2 out of range for cardinality 2"),
    ((0, -1, 0), "local state -1 out of range for cardinality 2"),
])
def test_initial_state_checked_by_the_codec(chain3, state, message):
    model = CtbnModel(chain3.processes, chain3.cims, initial_state=state)
    assert [(v.code, v.message) for v in validate_model(model)] == [
        ("initial", f"initial state: {message}")]


def test_initial_distribution_checks(chain3):
    dist = np.full(8, 1 / 8)
    ok = CtbnModel(chain3.processes, chain3.cims, initial_distribution=dist)
    assert validate_model(ok) == []
    bad = CtbnModel(chain3.processes, chain3.cims, initial_distribution=dist * 2)
    assert any(v.code == "initial" for v in validate_model(bad))
    both = CtbnModel(chain3.processes, chain3.cims, initial_state=(0, 0, 0),
                     initial_distribution=dist)
    assert any(v.code == "initial" for v in validate_model(both))


@pytest.mark.parametrize("row0", [[np.nan, np.nan], [-np.inf, np.inf], [-1.0, np.inf]])
def test_non_finite_rates_reported(row0):
    bad = CtbnModel((ProcessSpec("X", 2),), (Cim([[row0, [1.0, -1.0]]]),),
                    initial_state=(0,))
    assert [v.code for v in validate_model(bad)] == ["non-finite"]
    with pytest.raises(InvalidModelError):
        intensity_matrix(bad)


def test_non_finite_initial_distribution_reported(chain3):
    bad = CtbnModel(chain3.processes, chain3.cims, initial_distribution=np.full(8, np.nan))
    assert [v.code for v in validate_model(bad)] == ["non-finite"]


def test_require_valid_raises():
    bad = CtbnModel(
        (ProcessSpec("X", 2),),
        (Cim([[[-0.5, 1.0], [1.0, -1.0]]]),),
        initial_state=(0,),
    )
    with pytest.raises(InvalidModelError):
        require_valid(bad)


# -- indexing -----------------------------------------------------------------


def test_state_index_examples():
    m = binary3()
    assert state_index((0, 0, 0), m) == 0
    assert state_index((1, 0, 0), m) == 4  # first process most significant
    assert state_index((1, 1, 1), m) == 7


def test_state_index_out_of_range():
    m = binary3()
    with pytest.raises(ValueError):
        state_index((0, 2, 0), m)
    with pytest.raises(ValueError):
        state_index((0, 0), m)
    gs = build_state_space_graph(m)
    for index in (-1, 8, 1 << 40):
        with pytest.raises(ValueError, match="out of range"):
            state_from_index(index, m)
        with pytest.raises(ValueError, match="out of range"):
            state_from_index(index, gs)


def test_enumerate_then_index_is_identity(chain3):
    for i, state in enumerate(enumerate_states(chain3)):
        assert state_index(state, chain3) == i
        assert state_from_index(i, chain3) == state


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=5))
def test_index_bijection_random_cardinalities(cards):
    procs = tuple(ProcessSpec(f"P{j}", c) for j, c in enumerate(cards))
    cims = tuple(
        Cim(np.zeros((1, c, c))) for c in cards
    )
    m = CtbnModel(procs, cims, initial_state=(0,) * len(cards))
    gs = build_state_space_graph(m)
    seen = set()
    for i, state in enumerate(enumerate_states(m)):
        assert state_index(state, m) == i
        assert state_from_index(i, m) == state_from_index(i, gs) == state
        seen.add(state)
    assert len(seen) == m.state_count


def test_states_from_indices_matches_scalar_decode():
    rng = np.random.default_rng(11)
    threes = 0
    for _ in range(30):
        cards = rng.integers(2, 5, rng.integers(1, 7)).tolist()
        threes += 3 in cards
        gs = StateSpaceGraph(tuple(cards))
        indices = rng.integers(0, gs.node_count, 40)
        got = states_from_indices(indices, cards)
        assert got.dtype == np.int64 and got.shape == (40, len(cards))
        want = [state_from_index(int(i), gs) for i in indices]
        assert list(map(tuple, got.tolist())) == want
        # the scalar decode wraps the vector one: both against digit arithmetic
        assert want == [tuple(int(i) // m % c for m, c in zip(gs.multipliers, cards))
                        for i in indices]
        # any index shape: one row of digits per index
        assert np.array_equal(states_from_indices(indices.reshape(5, 8), cards),
                              got.reshape(5, 8, len(cards)))
        assert state_bits(got) == ["".join(map(str, x)) for x in want]
    assert threes >= 5


@pytest.mark.parametrize("index", [-1, 8, 1 << 40, 1 << 70, -(1 << 70)])
def test_states_from_indices_out_of_range_message(index):
    m = binary3()
    with pytest.raises(ValueError) as scalar:
        state_from_index(index, m)
    with pytest.raises(ValueError) as vector:
        states_from_indices([0, 7, index, 3], m.cardinalities)
    assert str(vector.value) == str(scalar.value)
    with pytest.raises(ValueError) as neighbors:
        build_state_space_graph(m).neighbors(index)
    assert str(neighbors.value) == str(scalar.value)


def test_states_from_indices_rejects_non_integers():
    # a float index was cast to int64 and truncated: 2.7 read as state 2
    for index in ([2.7], 2.7, [0, 1.0], np.array([[3.5]])):
        with pytest.raises(ValueError, match="is not an integer"):
            states_from_indices(index, (2, 2, 2))
    with pytest.raises(ValueError, match="state index 2.7 is not an integer"):
        StateSpaceGraph((2, 2, 2)).neighbors(2.7)
    with pytest.raises(ValueError, match="state index 'x' is not an integer"):
        states_from_indices([1, "x", 1 << 70], (2, 2, 2))
    assert states_from_indices(np.empty(0), (2, 2, 2)).shape == (0, 3)


def test_scalar_codec_rejects_non_integers(chain3):
    # the scalar pair had its own loops: 2.7 decoded to (0.0, 1.0, 0.7...) and
    # a local state of 1.5 was truncated to index 2
    with pytest.raises(ValueError, match="^state index 2.7 is not an integer$"):
        state_from_index(2.7, chain3)
    with pytest.raises(ValueError, match="^state index 2.7 is not an integer$"):
        state_from_index(2.7, StateSpaceGraph((2, 2, 2)))
    with pytest.raises(ValueError, match="^local state 1.5 is not an integer$"):
        state_index((0, 1.5, 0), chain3)
    with pytest.raises(ValueError, match="^local state 2.0 is not an integer$"):
        state_index((0, 0, 2.0), chain3)


def test_scalar_codec_takes_one_state(chain3):
    with pytest.raises(ValueError, match="expected one state index"):
        state_from_index([1, 2], chain3)
    with pytest.raises(ValueError, match="expected one state,"):
        state_index([(0, 1, 0), (1, 1, 0)], chain3)
    assert state_from_index(np.uint8(5), chain3) == (1, 0, 1) == state_from_index(5, chain3)


@pytest.mark.parametrize("state", [(0, 2, 0), (0, 0), (0, 1, 0, 1), (0, -1, 0),
                                   (0, 1 << 70, 0), (0, 1.5, 0), (1, "x", 0)])
def test_scalar_encoder_raises_the_vector_encoders_errors(state):
    m = binary3()
    with pytest.raises(ValueError) as scalar:
        state_index(state, m)
    with pytest.raises(ValueError) as vector:
        state_indices([state, state], m.cardinalities)
    assert str(scalar.value) == str(vector.value)


@pytest.mark.parametrize("n", [63, 64, 100])
def test_state_indices_up_to_int64(n):
    cards = (2,) * n
    if n == 63:  # 2^63 states: the last index is the largest int64
        assert state_indices((1,) * n, cards) == np.iinfo(np.int64).max
    else:
        with pytest.raises(ValueError, match=f"joint space has {2 ** n} states"):
            state_indices((1,) * n, cards)


def test_state_indices_inverts_states_from_indices():
    rng = np.random.default_rng(16)
    for _ in range(20):
        cards = rng.integers(2, 5, rng.integers(1, 7)).tolist()
        indices = rng.integers(0, int(np.prod(cards)), (4, 10))
        states = states_from_indices(indices, cards)
        got = state_indices(states, cards)
        assert got.dtype == np.int64 and np.array_equal(got, indices)
        model = CtbnModel(tuple(ProcessSpec(f"P{j}", c) for j, c in enumerate(cards)),
                          tuple(Cim(np.zeros((1, c, c))) for c in cards),
                          initial_state=(0,) * len(cards))
        assert [state_index(x, model) for x in states[0].tolist()] == indices[0].tolist()
        assert state_indices(states.astype(np.uint8), cards).tolist() == indices.tolist()


@pytest.mark.parametrize("index", [1 << 63, (1 << 64) - 1])
def test_states_from_indices_reports_large_unsigned_indices(index):
    # a uint64 index past int64 wrapped negative in the cast and was reported so
    with pytest.raises(ValueError, match=f"^state index {index} out of range$"):
        states_from_indices(np.array([3, index], dtype=np.uint64), (2, 2, 2))
    with pytest.raises(ValueError, match=f"^state index {index} out of range$"):
        StateSpaceGraph((2, 2, 2)).neighbors(np.uint64(index))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                   np.uint32, np.int64, np.uint64])
def test_states_from_indices_accepts_every_integer_dtype(dtype):
    want = states_from_indices(np.arange(8), (2, 2, 2))
    got = states_from_indices(np.arange(8, dtype=dtype), (2, 2, 2))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert StateSpaceGraph((2, 2, 2)).neighbors(dtype(5)) == [1, 7, 4]


def test_state_bits_joins_multi_digit_states():
    assert state_bits(np.array([[0, 11, 2], [10, 0, 1]])) == ["0112", "1001"]
    assert state_bits(np.zeros((0, 3), dtype=np.int64)) == []


def test_state_bits_digit_path_matches_template():
    # rows of local states 0 to 9 take the digit view; any other value, the template
    rng = np.random.default_rng(18)
    for dtype in (np.int64, np.int16, np.uint8):
        for n in (1, 3, 8, 33):
            states = rng.integers(0, 10, (50, n)).astype(dtype)
            template = "%d" * n
            want = [template % tuple(row) for row in states.tolist()]
            assert state_bits(states) == want
            assert state_bits(np.asfortranarray(states)) == want
            assert state_bits(states[::-2]) == want[::-2]
    wide = rng.integers(0, 14, (50, 4))
    wide[0, 2] = 13
    assert state_bits(wide) == ["".join(map(str, row)) for row in wide.tolist()]
    assert state_bits(np.array([[0, -1, 2]])) == ["0-12"]
    assert state_bits(np.zeros((4, 0), dtype=np.int64)) == [""] * 4


# -- local rates ---------------------------------------------------------------


def test_local_rate_rows(chain3):
    row = local_rate(chain3, "B", (0, 0, 1))
    assert row.tolist() == [-0.1, 0.1]
    row = local_rate(chain3, "A", (1, 0, 0))
    assert row.tolist() == [5.0, -5.0]
    row = local_rate(chain3, "B", (1, 0, 0))
    assert row.tolist() == [-15.0, 15.0]


def test_local_rate_ignores_non_parents(chain3):
    # A has no parents: its row cannot depend on B or C
    for b in (0, 1):
        for c in (0, 1):
            assert local_rate(chain3, "A", (0, b, c)).tolist() == [-1.0, 1.0]


def test_rate_table_rows_are_local_rates():
    # every (process, joint state) row the sampler reads is that process's CIM
    # row under the state's parent configuration, diagonal zeroed
    for seed in range(6):
        model = make_random_model(random.Random(seed), max_states=24)
        table = model.rate_table
        assert model.rate_table is table  # built once per model
        for x in enumerate_states(model):
            rows = table.offsets + np.asarray(x) @ table.weights
            for j, c in enumerate(model.cardinalities):
                want = local_rate(model, j, x).copy()
                want[x[j]] = 0.0
                assert table.rates[rows[j], :c].tolist() == want.tolist()
                assert not table.rates[rows[j], c:].any()


def test_rate_table_validates(chain3):
    bad = CtbnModel(chain3.processes, chain3.cims[:2] + (Cim([[[-1.0, 2.0], [1.0, -1.0]]]),),
                    initial_state=(0, 0, 0))
    with pytest.raises(InvalidModelError):
        bad.rate_table


# -- amalgamation ----------------------------------------------------------------


def test_amalgamate_chain3_entries(chain3):
    Q = amalgamate(chain3)
    i000 = state_index((0, 0, 0), chain3)
    i100 = state_index((1, 0, 0), chain3)
    i110 = state_index((1, 1, 0), chain3)
    assert Q[i000, i100] == 1.0
    assert Q[i000, i110] == 0.0  # two components cannot flip at once
    assert Q[i000, i000] == pytest.approx(-1.2, abs=1e-12)


def test_amalgamate_rows_sum_to_zero(chain3):
    Q = amalgamate(chain3)
    assert np.abs(Q.sum(axis=1)).max() < 1e-9


def test_amalgamate_matches_local_rate_on_random_models():
    rng = random.Random(7)
    for _ in range(8):
        m = make_random_model(rng)
        Q = amalgamate(m)
        for i, x in enumerate(enumerate_states(m)):
            for j in range(m.process_count):
                row = local_rate(m, j, x)
                for s in range(m.cardinalities[j]):
                    if s == x[j]:
                        continue
                    y = list(x)
                    y[j] = s
                    assert Q[i, state_index(tuple(y), m)] == row[s]
        hot = np.abs(Q.sum(axis=1)).max()
        assert hot < 1e-9


def _amalgamate_loop(model):
    """Reference flattening: one Python pass over states, processes and targets."""
    n = model.state_count
    place = StateSpaceGraph(model.cardinalities).multipliers
    Q = np.zeros((n, n))
    for i, x in enumerate(enumerate_states(model)):
        for j in range(model.process_count):
            row = local_rate(model, j, x)
            for s in range(model.cardinalities[j]):
                if s != x[j] and row[s] != 0.0:
                    Q[i, i + (s - x[j]) * place[j]] = row[s]
        Q[i, i] = -Q[i].sum()
    return Q


def _intensity_matrix_reference(model):
    """The construction that read each CIM row by its own parent-configuration
    arithmetic, before the rows came from the model's rate table."""
    gs = build_state_space_graph(model)
    n = gs.node_count
    idx = np.arange(n, dtype=np.int64)
    digits = [(idx // m) % c for m, c in zip(gs.multipliers, gs.cardinalities)]
    rates = np.empty((n, gs.degree))
    neighbors = np.empty((n, gs.degree), dtype=np.int64)
    col = 0
    for j, cim in enumerate(model.cims):
        config = np.zeros(n, dtype=np.int64)
        for p, pm in zip(model.parent_indices[j], model.parent_multipliers[j]):
            config += digits[p] * pm
        active = cim.matrices[config, digits[j]]
        for k in range(gs.cardinalities[j] - 1):
            target = k + (k >= digits[j])
            rates[:, col] = active[idx, target]
            neighbors[:, col] = idx + (target - digits[j]) * gs.multipliers[j]
            col += 1
    off = sp.csr_matrix((rates.ravel(), neighbors.ravel(), np.arange(n + 1) * gs.degree),
                        shape=(n, n))
    return (off - sp.diags(rates.sum(axis=1))).tocsr()


def test_intensity_matrix_matches_loop_reference():
    rng = random.Random(7)
    for _ in range(8):
        m = make_random_model(rng)
        Q = intensity_matrix(m)
        ref = _intensity_matrix_reference(m)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(Q, name), getattr(ref, name))
        degree = sum(c - 1 for c in m.cardinalities)
        assert Q.format == "csr"
        assert Q.nnz == m.state_count * (1 + degree)
        want = _amalgamate_loop(m)
        got = Q.toarray()
        off = ~np.eye(m.state_count, dtype=bool)
        assert (got[off] == want[off]).all()  # rates are copied, not computed
        # the diagonal is a sum in another order: equal up to float64 rounding
        assert np.allclose(np.diag(got), np.diag(want), rtol=4 * np.finfo(float).eps, atol=0)
        assert np.array_equal(amalgamate(m), got)


def test_amalgamate_zero_between_distant_states():
    rng = random.Random(3)
    m = make_random_model(rng)
    Q = amalgamate(m)
    states = list(enumerate_states(m))
    for i, x in enumerate(states):
        for k, y in enumerate(states):
            hamming = sum(a != b for a, b in zip(x, y))
            if hamming >= 2:
                assert Q[i, k] == 0.0


def test_amalgamate_byte_cap_checked_before_allocating():
    # 2^16 states: a dense float64 matrix would take 32 GiB
    m = independent_togglers([1.0] * 16, [2.0] * 16)
    assert m.state_count ** 2 * 8 > DENSE_BYTES_CAP
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceCapError, match="34359738368 bytes"):
            amalgamate(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_transient_distribution_rows():
    m = toggler_model(2.0)
    Q = amalgamate(m)
    p = transient_distribution(Q, [1.0, 0.0], 0.7)
    # symmetric two-state chain: P(on at t) = (1 - exp(-2qt)) / 2
    expected = (1 - np.exp(-2 * 2.0 * 0.7)) / 2
    assert p[1] == pytest.approx(expected, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# -- state space graph -------------------------------------------------------------


def test_state_space_graph_cube(chain3):
    gs = build_state_space_graph(chain3)
    assert gs.node_count == 8
    assert gs.degree == 3
    for i in range(8):
        assert len(gs.neighbors(i)) == 3


def test_state_space_graph_single_process():
    gs = build_state_space_graph(toggler_model())
    assert gs.node_count == 2
    assert list(gs.edges()) == [(0, 1)]


def test_state_space_graph_degree_formula():
    procs = tuple(ProcessSpec(f"P{j}", 2) for j in range(6))
    cims = tuple(Cim([[[-1.0, 1.0], [1.0, -1.0]]]) for _ in range(6))
    m = CtbnModel(procs, cims, initial_state=(0,) * 6)
    gs = build_state_space_graph(m)
    assert gs.node_count == 64
    assert gs.degree == 6
    assert len(gs.neighbors(17)) == 6


def test_state_space_adjacency_matches_hamming():
    rng = random.Random(11)
    m = make_random_model(rng, max_states=24)
    gs = build_state_space_graph(m)
    states = list(enumerate_states(m))
    for i, x in enumerate(states):
        expected = {
            k for k, y in enumerate(states)
            if sum(a != b for a, b in zip(x, y)) == 1
        }
        got = set(gs.neighbors(i))
        assert got == expected
        for k in got:
            assert i in gs.neighbors(k)  # symmetry


def _low_activity_reference(model, max_active):
    """The set-based loop the CLI used: states with at most `max_active` alarms
    on, then the same set closed under one-process flips."""
    n = model.process_count
    low = []
    for k in range(max_active + 1):
        for on in itertools.combinations(range(n), k):
            low.append(state_index([1 if j in on else 0 for j in range(n)], model))
    wanted = set(low)
    for idx in low:
        state = state_from_index(idx, model)
        for j in range(n):
            flipped = list(state)
            flipped[j] = 1 - flipped[j]
            wanted.add(state_index(flipped, model))
    return sorted(low), sorted(wanted)


@pytest.mark.parametrize("name", ["chain5", "complex9"])
def test_low_activity_states_match_set_reference(name):
    model = experiment_spec(name).build_model()
    gs = build_state_space_graph(model)
    for max_active in range(model.process_count + 1):
        low, wanted = _low_activity_reference(model, max_active)
        assert low_activity_states(model, max_active) == low
        assert low_activity_states(gs, max_active) == low
        assert low_activity_states(model, max_active, neighbors=True) == wanted


def test_low_activity_states_require_binary():
    ternary = CtbnModel((ProcessSpec("X", 3),), (Cim(np.zeros((1, 3, 3))),),
                        initial_state=(0,))
    with pytest.raises(ValueError, match="binary"):
        low_activity_states(ternary, 1)
    with pytest.raises(ValueError, match="binary"):
        low_activity_states(ternary, 1, neighbors=True)


# -- replicator builder ---------------------------------------------------------------


def test_replicator_reproduces_chain3(chain3, chain3_spec):
    built = chain3_spec.build_model()
    assert built.names == chain3.names
    for b, c in zip(built.cims, chain3.cims):
        assert np.array_equal(b.matrices, c.matrices)
    assert built.initial_state == (0, 0, 0)


def test_replicator_isolated_process_toggles():
    g = DiGraph(("A",), ())
    m = build_replicator_ctbn(g, {"A"}, (1.0, 5.0), 15.0, 0.1)
    assert m.cims[0].matrices.tolist() == [[[-1.0, 1.0], [5.0, -5.0]]]


def test_replicator_scalar_slow_rate():
    g = DiGraph(("A",), ())
    m = build_replicator_ctbn(g, {"A"}, 2.0, 15.0, 0.1)
    assert m.cims[0].matrices.tolist() == [[[-2.0, 2.0], [2.0, -2.0]]]


def test_replicator_fork_symmetry():
    g = DiGraph(("A", "B", "C"), (("A", "B"), ("A", "C")))
    m = build_replicator_ctbn(g, {"A"}, (1.0, 5.0), 15.0, 0.1)
    assert np.array_equal(m.cims[1].matrices, m.cims[2].matrices)


def test_replicator_and_rule():
    g = DiGraph(("A", "B", "C"), (("A", "C"), ("B", "C")))
    m = build_replicator_ctbn(g, {"A", "B"}, 1.0, 15.0, 0.1)
    # C moves toward 1 only in the all-parents-on configuration (the last one)
    mats = m.cims[2].matrices
    assert mats.shape == (4, 2, 2)
    for cfg in range(3):
        assert mats[cfg, 0, 1] == 0.1 and mats[cfg, 1, 0] == 15.0
    assert mats[3, 0, 1] == 15.0 and mats[3, 1, 0] == 0.1


def test_replicator_rejects_bad_rates():
    g = DiGraph(("A",), ())
    with pytest.raises(ValueError):
        build_replicator_ctbn(g, set(), (1.0, 20.0), 15.0, 0.1)
    with pytest.raises(ValueError):
        build_replicator_ctbn(g, set(), 1.0, 15.0, 15.0)


# -- ancestral restriction ----------------------------------------------------------


def test_ancestral_subprocess_chain(chain3):
    sub = ancestral_subprocess(chain3, {"A", "B"})
    assert sub.names == ("A", "B")
    assert np.array_equal(sub.cims[0].matrices, chain3.cims[0].matrices)
    assert np.array_equal(sub.cims[1].matrices, chain3.cims[1].matrices)
    assert sub.initial_state == (0, 0)
    assert validate_model(sub) == []


def test_ancestral_subprocess_full_set(chain3):
    sub = ancestral_subprocess(chain3, {"A", "B", "C"})
    assert model_to_json_dict(sub) == model_to_json_dict(chain3)


def test_ancestral_subprocess_rejects_non_ancestral(chain3):
    with pytest.raises(ValueError):
        ancestral_subprocess(chain3, {"B", "C"})


def _marginal_loop(model, sub, kept):
    """The per-state loop the bincount replaced."""
    dist = np.zeros(sub.state_count)
    for i, x in enumerate(enumerate_states(model)):
        dist[state_index(tuple(x[j] for j in kept), sub)] += model.initial_distribution[i]
    return dist


def test_ancestral_subprocess_matches_loop_on_random_distribution():
    rng = np.random.default_rng(3)
    model = experiment_spec("complex9").build_model()  # A, B, C drive D, which drives a chain
    for keep in ({"A"}, {"B", "C"}, {"A", "B", "C", "D", "E"}, set(model.names)):
        dist = rng.random(model.state_count)
        m = CtbnModel(model.processes, model.cims, initial_distribution=dist / dist.sum())
        sub = ancestral_subprocess(m, keep)
        kept = [j for j, name in enumerate(m.names) if name in keep]
        assert np.array_equal(sub.initial_distribution, _marginal_loop(m, sub, kept))


def test_ancestral_subprocess_marginalizes_distribution(chain3):
    dist = np.arange(1.0, 9.0)
    dist /= dist.sum()
    m = CtbnModel(chain3.processes, chain3.cims, initial_distribution=dist)
    sub = ancestral_subprocess(m, {"A", "B"})
    expected = dist.reshape(2, 2, 2).sum(axis=2).reshape(-1)
    assert np.allclose(sub.initial_distribution, expected)


# -- files and DOT ---------------------------------------------------------------------


def test_model_json_round_trip(chain3, tmp_path):
    path = tmp_path / "model.json"
    save_model(chain3, path)
    loaded = load_model(path)
    assert model_to_json_dict(loaded) == model_to_json_dict(chain3)
    # second round trip is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_json_rejects_unknown_fields(chain3, tmp_path):
    doc = model_to_json_dict(chain3)
    doc["comment"] = "extra"
    with pytest.raises(ValueError, match=r"unknown model fields: \['comment'\]"):
        model_from_json_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown model fields"):
        load_model(path)


def test_model_json_rejects_non_integer_cardinality(chain3):
    # int() truncated 2.9 to 2, and nothing reported it
    doc = model_to_json_dict(chain3)
    for value, text in ((2.9, "2.9"), ("2", "'2'"), (2.0, "2.0")):
        doc["processes"][1]["cardinality"] = value
        with pytest.raises(ValueError,
                           match=f"^process 'B': cardinality {text} is not an integer$"):
            model_from_json_dict(doc)
    doc["processes"][1]["cardinality"] = 2
    assert model_from_json_dict(doc).cardinalities == (2, 2, 2)


def test_integer_check_names_strings_by_repr(chain3):
    # a string read like the number it spells: "1" was reported as local state 1
    doc = model_to_json_dict(chain3)
    doc["initial_state"] = [0, "1", 0]
    assert [v.message for v in validate_model(model_from_json_dict(doc))] == [
        "initial state: local state '1' is not an integer"]
    with pytest.raises(ValueError, match="^local state 2.7 is not an integer$"):
        state_index((0, np.float64(2.7), "x"), chain3)  # a number keeps its plain text


def test_ctbn_graph_and_dot(chain3):
    g = ctbn_graph(chain3)
    assert g.edges == (("A", "B"), ("B", "C"))
    dot = model_to_dot(chain3)
    assert '"A" -> "B";' in dot and dot.startswith("digraph")
    sdot = state_space_to_dot(chain3)
    assert sdot.count(" -- ") == 12  # cube graph edges
    assert sdot == (GOLDEN / "state_space_chain3.dot").read_text()


def test_model_to_dot_golden():
    model = experiment_spec("complex9").build_model()
    assert model_to_dot(model) == (GOLDEN / "model_complex9.dot").read_text()
