"""Continuous-time Bayesian network models.

A model is a collection of finite-state processes, each with a conditional
intensity matrix (CIM) per configuration of its parent processes, plus an
initial condition on the joint state space.  Everything downstream (sampling,
reward analysis, graph queries) consumes the :class:`CtbnModel` built here.

Indexing conventions (fixed so that files and tables are unambiguous):

* joint states are indexed mixed-radix over processes in declared order,
  first process most significant;
* parent configurations are indexed mixed-radix over the parent list in
  declared order, first-listed parent most significant.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import DiGraph, _to_dot, digraph_to_dot, is_ancestral

if TYPE_CHECKING:  # scipy loads inside the functions that call it: sampling needs numpy alone
    import scipy.sparse as sp

ROW_SUM_TOL = 1e-9
DEFAULT_STATE_CAP = 1 << 20
DENSE_BYTES_CAP = 1 << 30  # largest dense S x S float64 matrix amalgamate builds (1 GiB)


class InvalidModelError(ValueError):
    """Raised when an operation requires a valid model but validation fails."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid model: {lines}{more}")


class StateSpaceCapError(ValueError):
    """Raised when the joint state space exceeds the configured cap."""


@dataclass(frozen=True)
class Violation:
    """One validation finding.  severity is 'error' or 'warning'."""

    severity: str
    code: str
    where: str
    message: str

    def to_json(self) -> str:
        return json.dumps(
            {"severity": self.severity, "code": self.code, "where": self.where,
             "message": self.message}
        )


@dataclass(frozen=True)
class ProcessSpec:
    """One component process: its name, local state count, and parents."""

    name: str
    cardinality: int
    parents: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class Cim:
    """Conditional intensity matrices for one process.

    ``matrices`` has shape (parent_config_count, cardinality, cardinality);
    configuration c holds the intensity matrix active when the parents are in
    the mixed-radix configuration c.
    """

    matrices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrices, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "matrices", arr)

    @property
    def parent_config_count(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class CtbnModel:
    """A CTBN: processes, their CIMs, and an initial condition.

    Exactly one of ``initial_state`` (a point mass) or
    ``initial_distribution`` (a probability vector over joint state indices)
    should be given.  Instances are immutable and safe to share across
    threads.
    """

    processes: tuple[ProcessSpec, ...]
    cims: tuple[Cim, ...]
    initial_state: tuple[int, ...] | None = None
    initial_distribution: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(
            self, "cims",
            tuple(c if isinstance(c, Cim) else Cim(c) for c in self.cims),
        )
        if self.initial_state is not None:
            # integers of any type as ints; anything else as given, for validation to report
            object.__setattr__(self, "initial_state", tuple(
                int(v) if isinstance(v, numbers.Integral) else v for v in self.initial_state))
        if self.initial_distribution is not None:
            arr = np.asarray(self.initial_distribution, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, "initial_distribution", arr)

    # -- derived structure ------------------------------------------------

    @property
    def process_count(self) -> int:
        return len(self.processes)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.processes)

    @cached_property
    def name_to_index(self) -> dict[str, int]:
        return {p.name: j for j, p in enumerate(self.processes)}

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(p.cardinality for p in self.processes)

    @cached_property
    def state_count(self) -> int:
        return math.prod(self.cardinalities)

    @cached_property
    def parent_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.name_to_index[name] for name in p.parents)
            for p in self.processes
        )

    @cached_property
    def parent_multipliers(self) -> tuple[tuple[int, ...], ...]:
        """Place values for parent configurations, first parent most significant."""
        return tuple(_place_values([self.cardinalities[i] for i in parents])
                     for parents in self.parent_indices)

    @cached_property
    def rate_table(self) -> RateTable:
        """The validated model's transition rates, built once per model for
        the sampler (see :class:`RateTable`)."""
        require_valid(self)
        return _rate_table(self)


@dataclass(frozen=True, eq=False)
class RateTable:
    """Every CIM row's off-diagonal rates, stacked for lookup by joint state.

    Process j in joint state x reads row ``offsets[j] + (x @ weights)[j]`` of
    ``rates``, which is ``offsets[j] + config * cardinality[j] + x[j]``: the
    mixed-radix parent configuration of :func:`intensity_matrix`.  Entry s of
    a row is the rate into local state s; the diagonal and the columns past
    the process's cardinality are 0.  Both :func:`intensity_matrix` and the
    sampler's :attr:`flat` read it through one table of every joint state's
    real moves (:func:`_move_table`), which has neither of those columns.
    """

    rates: np.ndarray  # (rows, largest cardinality)
    offsets: np.ndarray  # (n,) first row of each process
    weights: np.ndarray  # (n, n) int64
    cardinalities: tuple[int, ...]

    @property
    def flat_bytes(self) -> int:
        """Bytes of :attr:`flat`, known before it is built: per joint state a
        float64, an int32 and an int16 for each of its real moves and a
        float64 total, and an int32 for each move column."""
        degree = sum(c - 1 for c in self.cardinalities)
        return math.prod(self.cardinalities) * (14 * degree + 8) + 4 * degree

    @cached_property
    def flat(self) -> FlatTable:
        """The sampler's :class:`FlatTable`, built on first use, once per
        table (see ``simulate.FLAT_TABLE_BYTES``): the move table of
        :func:`_move_table` with its rates summed along each row in place."""
        cards = self.cardinalities
        cum, nxt = _move_table(self)
        np.cumsum(cum, axis=1, out=cum)
        process = np.repeat(np.arange(len(cards), dtype=np.int32), [c - 1 for c in cards])
        place, card = (np.array(v, dtype=np.int32)[process] for v in (_place_values(cards), cards))
        local = nxt // place
        local %= card
        # the last column, copied; a sum of one entry is that entry, and of none 0
        return FlatTable(cum, nxt, local.astype(np.int16), cum[:, -1:].sum(axis=1), process)


class FlatTable(NamedTuple):
    """Every joint state's real moves, one row per state, for the sampler.

    Column c of row x is x's c-th move of :func:`_move_table`: `cum` holds
    the cumulative sum of the row's rates, `next` the joint index the move
    leads to and `local` the moved process's new local state (its digit of
    `next`).  There is no diagonal or padding column: a row has ``degree =
    sum(c_j - 1)`` columns.  `total` is the last column of `cum` (the exit
    rate) as one vector, and `process` the process each column moves.
    """

    cum: np.ndarray  # (S, degree) float64
    next: np.ndarray  # (S, degree) int32
    local: np.ndarray  # (S, degree) int16
    total: np.ndarray  # (S,) float64
    process: np.ndarray  # (degree,) int32


def _move_table(table: RateTable) -> tuple[np.ndarray, np.ndarray]:
    """Every joint state's ``degree = sum(c_j - 1)`` real moves, in the order
    of :meth:`StateSpaceGraph.neighbor_table`: their rates, read from the CIM
    rows in force (see :class:`RateTable`), and the int32 joint index each
    leads to.  This is the one move table of :func:`intensity_matrix` and of
    :attr:`RateTable.flat`.  Local states are decoded one process at a time,
    so the temporaries beside the two tables are a few state vectors.  Both
    users cap the state count far below 2^31."""
    cards = table.cardinalities
    place = _place_values(cards)
    idx = np.arange(math.prod(cards), dtype=np.int32)
    degree = sum(c - 1 for c in cards)
    rates = np.empty((idx.size, degree))
    nxt = np.empty((idx.size, degree), dtype=np.int32)

    def digit(p: int) -> np.ndarray:
        return idx // place[p] % cards[p]

    col = 0
    for j, c in enumerate(cards):
        parents = np.flatnonzero(table.weights[:, j])  # j itself and its parents
        row = sum(digit(p) * table.weights[p, j] for p in parents) + table.offsets[j]
        own = digit(j)
        for target in _neighbor_targets(own, c):
            rates[:, col] = table.rates[row, target]
            nxt[:, col] = idx + (target - own) * place[j]
            col += 1
    return rates, nxt


def _rate_table(model: CtbnModel) -> RateTable:
    n = model.process_count
    cards = model.cardinalities
    width = max(cards, default=1)
    weights = np.zeros((n, n), dtype=np.int64)
    blocks = []
    for j, cim in enumerate(model.cims):
        weights[j, j] = 1
        for p, m in zip(model.parent_indices[j], model.parent_multipliers[j]):
            weights[p, j] = m * cards[j]
        block = np.zeros((cim.parent_config_count, cards[j], width))
        block[:, :, :cards[j]] = cim.matrices
        block[:, range(cards[j]), range(cards[j])] = 0.0
        blocks.append(block.reshape(-1, width))
    offsets = np.cumsum([0, *(len(b) for b in blocks)], dtype=np.int64)[:n]
    rates = np.concatenate(blocks) if blocks else np.zeros((0, width))
    return RateTable(rates, offsets, weights, cards)


# -- state indexing --------------------------------------------------------


def _place_values(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix place values, first digit most significant."""
    mults = [1] * len(cardinalities)
    for j in range(len(cardinalities) - 2, -1, -1):
        mults[j] = mults[j + 1] * cardinalities[j + 1]
    return tuple(mults)


def _integers(values, what: str) -> np.ndarray:
    """`values` as an array of any integer dtype (or of Python ints), else a
    ``ValueError`` naming the first value that is not an integer: a number
    by its text, anything else (a string) by its repr."""
    array = np.asarray(values)
    if array.dtype.kind not in "biu":  # Python ints past int64, floats, mixed types
        wrong = [v for v in np.asarray(values, dtype=object).flat
                 if not isinstance(v, numbers.Integral)]
        if wrong:
            value = wrong[0] if isinstance(wrong[0], numbers.Number) else repr(wrong[0])
            raise ValueError(f"{what} {value} is not an integer")
    return array


def state_index(state: Sequence[int], model: CtbnModel) -> int:
    """Mixed-radix index of a joint state (first process most significant):
    :func:`state_indices` of one state, with its errors."""
    index = state_indices(state, model.cardinalities)
    if index.ndim:
        raise ValueError(f"expected one state, got an array of shape {np.shape(state)}")
    return int(index)


def state_from_index(index: int, model: CtbnModel | StateSpaceGraph) -> tuple[int, ...]:
    """Inverse of :func:`state_index`: :func:`states_from_indices` of one
    index, with its errors.  Only ``model.cardinalities`` is read, so a
    :class:`StateSpaceGraph` serves as well."""
    state = states_from_indices(index, model.cardinalities)
    if state.ndim != 1:
        raise ValueError(f"expected one state index, got an array of shape {np.shape(index)}")
    return tuple(state.tolist())


def _check_states(states, cardinalities: Sequence[int]) -> np.ndarray:
    """States given as local states along the last axis, as an integer
    array.  Raises ``ValueError`` for a state of the wrong length, a local
    state that is not an integer, or one out of range for its process."""
    values = _integers(states, "local state")
    n = len(cardinalities)
    if values.shape[-1:] != (n,):
        got = values.shape[-1] if values.ndim else "no"
        raise ValueError(f"state has {got} entries, model has {n} processes")
    cards = np.array(cardinalities, dtype=np.int64)
    bad = np.argwhere((values < 0) | (values >= cards))
    if bad.size:
        raise ValueError(f"local state {values[tuple(bad[0])]} out of range "
                         f"for cardinality {cards[bad[0, -1]]}")
    return values


def state_indices(states, cardinalities: Sequence[int]) -> np.ndarray:
    """Joint indices of states given as local states along the last axis,
    the inverse of :func:`states_from_indices`.  Raises ``ValueError`` where
    :func:`_check_states` does, and when the joint space has more states
    than int64 indices reach."""
    values = _check_states(states, cardinalities)
    count = math.prod(cardinalities)
    if count - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"the joint space has {count} states, past int64 indices")
    return values.astype(np.int64) @ np.array(_place_values(cardinalities), dtype=np.int64)


def states_from_indices(indices, cardinalities: Sequence[int]) -> np.ndarray:
    """The local states of joint indices of any integer dtype and any shape,
    one row per index.  Raises ``ValueError`` for an index that is not an
    integer or is out of range.

    Each process's column is contiguous in memory (the result is a view of
    a (processes, ...) array), which is the faster layout for the callers.
    """
    index = _integers(indices, "state index")
    bad = np.flatnonzero((index < 0) | (index >= math.prod(cardinalities)))
    if bad.size:  # checked before the cast to int64, which could wrap
        raise ValueError(f"state index {index.flat[bad[0]]} out of range")
    rest = index.astype(np.int64)
    out = np.empty((len(cardinalities),) + index.shape, dtype=np.int64)
    for j in reversed(range(len(cardinalities))):  # least significant digit first
        rest, out[j] = np.divmod(rest, cardinalities[j])
    return np.moveaxis(out, 0, -1)


def state_bits(states: np.ndarray) -> list[str]:
    """The text of each row of local states: its digits run together.

    When every local state is 0 to 9, each row's digit codes are viewed as
    one numpy string; a larger state takes a ``"%d"`` per process.
    """
    states = np.asarray(states)
    n = states.shape[-1]
    if n and states.size and 0 <= states.min() and states.max() <= 9:
        codes = np.ascontiguousarray(states + ord("0"), dtype=np.uint32)  # UCS4 code points
        return codes.view(f"U{n}").ravel().tolist()
    template = "%d" * n
    return [template % row for row in map(tuple, states.tolist())]


def enumerate_states(model: CtbnModel) -> Iterator[tuple[int, ...]]:
    """Yield all joint states in index order."""
    return itertools.product(*(range(c) for c in model.cardinalities))


def active_alarm_count(state: Sequence[int]) -> int:
    """Number of non-zero local states (number of alarms that are on)."""
    return int(sum(1 for v in state if v))


def low_activity_states(model: CtbnModel | StateSpaceGraph, max_active: int,
                        neighbors: bool = False) -> list[int]:
    """Indices of the states with at most `max_active` active alarms, ascending.

    With ``neighbors`` their state-space neighbors are included too: the
    states whose EDNT the REDNT of the low-activity states needs.  Requires
    binary processes; only ``model.cardinalities`` is read.
    """
    cards = model.cardinalities
    if any(c != 2 for c in cards):
        raise ValueError("active-alarm filtering requires binary processes")
    mults = _place_values(cards)
    low = np.array(sorted(
        sum(mults[j] for j in on)
        for k in range(max_active + 1)
        for on in itertools.combinations(range(len(cards)), k)), dtype=np.int64)
    if neighbors:
        low = np.union1d(low, StateSpaceGraph(cards).neighbor_table(low))
    return low.tolist()


# -- validation -------------------------------------------------------------


def validate_model(model: CtbnModel, include_warnings: bool = False) -> list[Violation]:
    """Collect every constraint violation; an empty list means the model is valid.

    Zero exit rates (absorbing local states) are reported as warnings and do
    not make a model invalid; pass ``include_warnings=True`` to see them.
    """
    out: list[Violation] = []
    err = lambda code, where, msg: out.append(Violation("error", code, where, msg))

    seen: set[str] = set()
    for p in model.processes:
        if p.name in seen:
            err("duplicate-name", p.name, f"process name {p.name!r} declared more than once")
        seen.add(p.name)
        if p.cardinality < 2:
            err("cardinality", p.name, f"process {p.name!r} has cardinality {p.cardinality} < 2")

    names = set(model.names)
    structurally_ok = []
    for p in model.processes:
        ok = True
        for parent in p.parents:
            if parent == p.name:
                err("self-parent", p.name, f"process {p.name!r} lists itself as a parent")
                ok = False
            elif parent not in names:
                err("dangling-parent", p.name,
                    f"process {p.name!r} references unknown parent {parent!r}")
                ok = False
        structurally_ok.append(ok)

    if len(model.cims) != len(model.processes):
        err("cim-count", "<model>",
            f"{len(model.cims)} CIMs for {len(model.processes)} processes")
        return out if include_warnings else [v for v in out if v.severity == "error"]

    for j, (p, cim) in enumerate(zip(model.processes, model.cims)):
        mats = cim.matrices
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            err("cim-shape", p.name, f"CIM for {p.name!r} is not a stack of square matrices")
            continue
        if mats.shape[1] != p.cardinality:
            err("cim-shape", p.name,
                f"CIM for {p.name!r} has side {mats.shape[1]}, expected {p.cardinality}")
            continue
        if structurally_ok[j]:
            expected = 1
            for parent in p.parents:
                expected *= model.processes[model.name_to_index[parent]].cardinality
            if mats.shape[0] != expected:
                err("cim-shape", p.name,
                    f"CIM for {p.name!r} has {mats.shape[0]} parent configurations, "
                    f"expected {expected}")
                continue
        for cfg in range(mats.shape[0]):
            mat = mats[cfg]
            where = f"{p.name}[config {cfg}]"
            if not np.isfinite(mat).all():
                err("non-finite", where, f"NaN or infinite rate in {where}")
                continue
            off = mat.copy()
            np.fill_diagonal(off, 0.0)
            if (off < 0).any():
                err("negative-rate", where, f"negative off-diagonal rate in {where}")
            if (np.diag(mat) > 0).any():
                err("positive-diagonal", where, f"positive diagonal entry in {where}")
            bad_rows = np.flatnonzero(np.abs(mat.sum(axis=1)) > ROW_SUM_TOL)
            for r in bad_rows:
                err("row-sum", where,
                    f"row {r} of {where} sums to {mat[r].sum():.3g}, expected 0")
            for r in np.flatnonzero(np.abs(np.diag(mat)) == 0.0):
                out.append(Violation(
                    "warning", "absorbing-state", where,
                    f"local state {r} of {where} has exit rate 0 (absorbing)"))

    if (model.initial_state is None) == (model.initial_distribution is None):
        err("initial", "<model>",
            "exactly one of initial_state / initial_distribution must be set")
    elif model.initial_state is not None:
        try:
            _check_states(model.initial_state, model.cardinalities)
        except ValueError as exc:
            err("initial", "<model>", f"initial state: {exc}")
    else:
        dist = model.initial_distribution
        if not out:  # state_count only meaningful on structurally sound models
            if dist.shape != (model.state_count,):
                err("initial", "<model>",
                    f"initial distribution has length {dist.shape}, "
                    f"expected {model.state_count}")
            elif not np.isfinite(dist).all():
                err("non-finite", "<model>",
                    "initial distribution has NaN or infinite entries")
            else:
                if (dist < 0).any():
                    err("initial", "<model>", "initial distribution has negative entries")
                if abs(dist.sum() - 1.0) > ROW_SUM_TOL:
                    err("initial", "<model>",
                        f"initial distribution sums to {dist.sum():.12g}, expected 1")

    if include_warnings:
        return out
    return [v for v in out if v.severity == "error"]


def require_valid(model: CtbnModel) -> None:
    violations = validate_model(model)
    if violations:
        raise InvalidModelError(violations)


# -- rate lookups and amalgamation ------------------------------------------


def local_rate(model: CtbnModel, process: int | str, state: Sequence[int]) -> np.ndarray:
    """Active intensity-matrix row for a process in a given joint state.

    The row is selected by the parent configuration read off ``state`` and
    the process's own current local state.
    """
    j = model.name_to_index[process] if isinstance(process, str) else int(process)
    parents = model.parent_indices[j]
    cfg = state_indices([state[p] for p in parents], [model.cardinalities[p] for p in parents])
    return model.cims[j].matrices[cfg][int(state[j])]


def intensity_matrix(model: CtbnModel) -> sp.csr_matrix:
    """Flatten the CTBN into a sparse (CSR) intensity matrix over the joint space.

    Entry (x, y) for states differing only in process j is j's local
    transition rate under x's parent configuration; states differing in two
    or more components get rate 0, and the diagonal closes each row to 0.
    Row x stores x's real moves, zero rates included, from the move table of
    :func:`_move_table` that the sampler's :class:`FlatTable` is summed from,
    plus the diagonal, so nnz = S * (1 + sum_j (c_j - 1)).
    """
    import scipy.sparse as sp  # loaded on first use

    gs = build_state_space_graph(model)
    rates, moves = _move_table(model.rate_table)
    n = gs.node_count
    off = sp.csr_matrix((rates.ravel(), moves.ravel(), np.arange(n + 1) * gs.degree),
                        shape=(n, n))
    return (off - sp.diags(rates.sum(axis=1))).tocsr()


def amalgamate(model: CtbnModel) -> np.ndarray:
    """Dense, read-only copy of :func:`intensity_matrix`.

    For small models and tests; the analysis itself works on the sparse
    matrix.  Raises :class:`StateSpaceCapError` before allocating when the
    S x S float64 array would exceed ``DENSE_BYTES_CAP`` bytes.
    """
    build_state_space_graph(model)  # validates
    n = model.state_count
    nbytes = n * n * np.dtype(float).itemsize
    if nbytes > DENSE_BYTES_CAP:
        raise StateSpaceCapError(
            f"dense intensity matrix for {n} states needs {nbytes} bytes, "
            f"cap is {DENSE_BYTES_CAP} bytes")
    Q = intensity_matrix(model).toarray()
    Q.flags.writeable = False
    return Q


def transient_distribution(intensity: np.ndarray, initial: np.ndarray, t: float) -> np.ndarray:
    """Exact state distribution at time t via the matrix exponential.

    Only intended for small instances; used as the ground-truth oracle for
    the trajectory sampler.
    """
    from scipy.linalg import expm  # loaded on first use

    p0 = np.asarray(initial, dtype=float)
    return p0 @ expm(np.asarray(intensity) * float(t))


# -- state space graph --------------------------------------------------------


def _neighbor_targets(digit: np.ndarray, cardinality: int) -> Iterator[np.ndarray]:
    """The other local states of a process, ascending: k, skipping `digit`."""
    for k in range(cardinality - 1):
        yield k + (k >= digit)


@dataclass(frozen=True)
class StateSpaceGraph:
    """Undirected graph on joint states; edges join states one local flip apart.

    The structure is regular, so adjacency is computed arithmetically rather
    than stored.
    """

    cardinalities: tuple[int, ...]

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        return _place_values(self.cardinalities)

    @property
    def node_count(self) -> int:
        return math.prod(self.cardinalities)

    @property
    def degree(self) -> int:
        return sum(c - 1 for c in self.cardinalities)

    def neighbor_table(self, indices) -> np.ndarray:
        """Neighbors of many states at once: shape ``indices.shape + (degree,)``.

        Neighbors are listed by process, then by target local state
        ascending (the order of :meth:`neighbors`).
        """
        digits = states_from_indices(indices, self.cardinalities)  # range check
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape + (self.degree,), dtype=np.int64)
        col = 0
        for j, (c, m) in enumerate(zip(self.cardinalities, self.multipliers)):
            digit = digits[..., j]
            for target in _neighbor_targets(digit, c):
                out[..., col] = idx + (target - digit) * m
                col += 1
        return out

    def neighbors(self, index: int) -> list[int]:
        """Indices of all states differing from `index` in exactly one process."""
        return self.neighbor_table(index).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.node_count):
            for j in self.neighbors(i):
                if j > i:
                    yield (i, j)


def build_state_space_graph(model: CtbnModel, max_states: int = DEFAULT_STATE_CAP) -> StateSpaceGraph:
    require_valid(model)
    if model.state_count > max_states:
        raise StateSpaceCapError(
            f"joint state space has {model.state_count} states, cap is {max_states}")
    return StateSpaceGraph(model.cardinalities)


# -- CTBN graph and replicator construction ----------------------------------


def ctbn_graph(model: CtbnModel) -> DiGraph:
    """The dependence graph: an edge parent -> process per CIM dependence."""
    edges = []
    for p in model.processes:
        for parent in p.parents:
            edges.append((parent, p.name))
    return DiGraph(model.names, edges)


def _toggler(up: float, down: float) -> np.ndarray:
    return np.array([[-up, up], [down, -down]])


def _replicator_matrix(target: int, toward_up: float, toward_down: float,
                       base: float) -> np.ndarray:
    # moves toward `target` at the toward rate and away from it at `base`
    if target == 1:
        return np.array([[-toward_up, toward_up], [base, -base]])
    return np.array([[-base, base], [toward_down, -toward_down]])


def build_replicator_ctbn(
    graph: DiGraph,
    slow_processes: Iterable[str],
    slow_rate: float | tuple[float, float],
    fast_rate: float,
    base_rate: float,
) -> CtbnModel:
    """Binary model where each process replicates the joint state of its parents.

    Processes without parents toggle on their own at the slow rate(s);
    a scalar ``slow_rate`` gives a symmetric toggler, a pair gives separate
    off->on and on->off rates.  A process with parents moves toward 1 only
    when *all* parents are 1 (otherwise toward 0); the move toward its target
    happens at ``fast_rate`` (or the slow rates, for processes listed in
    ``slow_processes``) and the move away from it at ``base_rate``.

    The initial state is all zeros.
    """
    if isinstance(slow_rate, (int, float)):
        slow_up = slow_down = float(slow_rate)
    else:
        slow_up, slow_down = (float(r) for r in slow_rate)
    slow = set(slow_processes)
    for rate, label in ((slow_up, "slow"), (slow_down, "slow"),
                        (fast_rate, "fast"), (base_rate, "base")):
        if rate <= 0:
            raise ValueError(f"{label} rate must be positive, got {rate}")
    if max(slow_up, slow_down) >= fast_rate or base_rate >= fast_rate:
        raise ValueError("expected slow and base rates below the fast rate")
    unknown = slow - set(graph.nodes)
    if unknown:
        raise ValueError(f"slow processes not in graph: {sorted(unknown)}")

    processes = []
    cims = []
    for name in graph.nodes:
        parents = tuple(n for n in graph.nodes if n in graph.parents_of(name))
        processes.append(ProcessSpec(name, 2, parents))
        if not parents:
            cims.append(Cim(_toggler(slow_up, slow_down)[None, :, :]))
            continue
        toward = (slow_up, slow_down) if name in slow else (fast_rate, fast_rate)
        mats = []
        for config in itertools.product((0, 1), repeat=len(parents)):
            target = 1 if all(config) else 0
            mats.append(_replicator_matrix(target, toward[0], toward[1], base_rate))
        cims.append(Cim(np.stack(mats)))
    return CtbnModel(tuple(processes), tuple(cims),
                     initial_state=(0,) * len(processes))


# -- ancestral restriction ----------------------------------------------------


def ancestral_subprocess(model: CtbnModel, keep: Iterable[str]) -> CtbnModel:
    """Restrict the model to an ancestral set of processes.

    The restricted processes keep their CIMs unchanged, so the restricted
    model's law equals the full model's marginal law on those processes.
    Raises ``ValueError`` if the set is not ancestral.
    """
    keep = set(keep)
    g = ctbn_graph(model)
    if not is_ancestral(g, keep):
        raise ValueError(f"{sorted(keep)} is not an ancestral process set")
    kept = [j for j, p in enumerate(model.processes) if p.name in keep]
    processes = tuple(model.processes[j] for j in kept)
    cims = tuple(model.cims[j] for j in kept)
    if model.initial_state is not None:
        return CtbnModel(processes, cims,
                         initial_state=tuple(model.initial_state[j] for j in kept))
    # marginalize an explicit joint distribution onto the kept coordinates
    cards = [model.cardinalities[j] for j in kept]
    restricted = state_indices(
        states_from_indices(np.arange(model.state_count), model.cardinalities)[:, kept], cards)
    dist = np.bincount(restricted, weights=model.initial_distribution,
                       minlength=math.prod(cards))
    return CtbnModel(processes, cims, initial_distribution=dist)


# -- model files and DOT export ----------------------------------------------


def model_to_json_dict(model: CtbnModel) -> dict:
    doc: dict = {
        "processes": [
            {"name": p.name, "cardinality": p.cardinality, "parents": list(p.parents)}
            for p in model.processes
        ],
        "cims": {p.name: c.matrices.tolist() for p, c in zip(model.processes, model.cims)},
    }
    if model.initial_state is not None:
        doc["initial_state"] = list(model.initial_state)
    if model.initial_distribution is not None:
        doc["initial_distribution"] = model.initial_distribution.tolist()
    return doc


def model_from_json_dict(doc: dict) -> CtbnModel:
    """The model of a JSON document (see :func:`model_to_json_dict`); raises
    ``ValueError`` for a field it does not know or a cardinality that is not
    an integer."""
    extra = set(doc) - {"processes", "cims", "initial_state", "initial_distribution"}
    if extra:
        raise ValueError(f"unknown model fields: {sorted(extra)}")
    processes = tuple(
        ProcessSpec(p["name"],
                    int(_integers(p["cardinality"], f"process {p['name']!r}: cardinality")),
                    tuple(p.get("parents", ())))
        for p in doc["processes"]
    )
    cims = tuple(Cim(np.asarray(doc["cims"][p.name], dtype=float)) for p in processes)
    initial_state = doc.get("initial_state")
    initial_distribution = doc.get("initial_distribution")
    return CtbnModel(
        processes, cims,
        initial_state=tuple(initial_state) if initial_state is not None else None,
        initial_distribution=(np.asarray(initial_distribution, dtype=float)
                              if initial_distribution is not None else None),
    )


def save_model(model: CtbnModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> CtbnModel:
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))


def model_to_dot(model: CtbnModel) -> str:
    return digraph_to_dot(ctbn_graph(model), "ctbn")


def state_space_to_dot(model: CtbnModel, max_states: int = 4096) -> str:
    gs = build_state_space_graph(model, max_states=max_states)
    labels = state_bits(states_from_indices(np.arange(gs.node_count), gs.cardinalities))
    return _to_dot("graph", "state_space",
                   (f's{i} [label="{label}"]' for i, label in enumerate(labels)),
                   ((f"s{i}", f"s{j}") for i, j in gs.edges()))
