"""Reference computations the benchmark checks the program's outputs against.

Everything here reads a model as the plain JSON document the program writes
(`processes`, `cims`, `initial_state`) and uses only numpy and scipy, never
the `ctbn_sentry` package, so a fault in the package cannot hide itself.

- `generator` builds the sparse intensity matrix Q straight from the CIMs by
  index arithmetic on the joint-state index array.
- `ednt` solves (alpha I - Q) V = q with a sparse LU factorisation.
- `ednt_horizon` is the finite-horizon value V_T = V - e^{(Q - alpha I) T} V.
- `event_moments` gives E[N(T)] and E[N(T)^2], N(T) being the number of
  transitions in [0, T].
Both apply the exponential of an augmented generator with `expm_multiply`.
- `rednt`, `fast_runs` and `jaccard` restate the paper's definitions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve


def place_values(cards) -> np.ndarray:
    """Mixed-radix place values, first entry most significant."""
    cards = np.asarray(cards, dtype=np.int64)
    out = np.ones(cards.size, dtype=np.int64)
    for j in range(cards.size - 2, -1, -1):
        out[j] = out[j + 1] * cards[j + 1]
    return out


def local_states(cards) -> np.ndarray:
    """S x P array: row x holds the local state of every process in joint state x."""
    cards = np.asarray(cards, dtype=np.int64)
    idx = np.arange(int(np.prod(cards)), dtype=np.int64)
    return (idx[:, None] // place_values(cards)[None, :]) % cards[None, :]


def generator(doc: dict) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse intensity matrix Q and exit-rate vector q of a model document."""
    procs = doc["processes"]
    cards = np.array([p["cardinality"] for p in procs], dtype=np.int64)
    where = {p["name"]: j for j, p in enumerate(procs)}
    mult = place_values(cards)
    local = local_states(cards)
    size = local.shape[0]
    idx = np.arange(size, dtype=np.int64)
    rows, cols, vals = [], [], []
    for j, p in enumerate(procs):
        cim = np.asarray(doc["cims"][p["name"]], dtype=float)
        parents = [where[name] for name in p.get("parents", [])]
        if parents:
            config = local[:, parents] @ place_values(cards[parents])
        else:
            config = np.zeros(size, dtype=np.int64)
        own = local[:, j]
        for target in range(int(cards[j])):
            rate = cim[config, own, target]
            keep = (own != target) & (rate != 0.0)
            rows.append(idx[keep])
            cols.append(idx[keep] + (target - own[keep]) * mult[j])
            vals.append(rate[keep])
    off = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    q = np.asarray(off.sum(axis=1)).ravel()
    return (off - sp.diags(q)).tocsr(), q


def ednt(doc: dict, alpha: float) -> np.ndarray:
    """Infinite-horizon EDNT of every joint state."""
    Q, q = generator(doc)
    # minimum-degree ordering keeps the LU fill of a hypercube chain small
    return spsolve((alpha * sp.identity(Q.shape[0]) - Q).tocsc(), q,
                   permc_spec="MMD_AT_PLUS_A")


def _last_column(blocks: sp.spmatrix, t_end: float) -> np.ndarray:
    """exp(t_end * blocks) applied to the last unit vector."""
    unit = np.zeros(blocks.shape[0])
    unit[-1] = 1.0
    return expm_multiply(t_end * blocks.tocsr(), unit)


def ednt_horizon(doc: dict, alpha: float, t_end: float) -> np.ndarray:
    """EDNT counting only transitions in [0, T]: V_T = V - e^{(Q - alpha I) T} V.

    It equals the integral of e^{(Q - alpha I) s} q over [0, T], the last
    column of exp(T [[Q - alpha I, q], [0, 0]]), which needs no solve.
    """
    Q, q = generator(doc)
    shifted = Q - alpha * sp.identity(Q.shape[0])
    blocks = sp.bmat([[shifted, sp.csr_matrix(q[:, None])], [None, sp.csr_matrix((1, 1))]])
    return _last_column(blocks, t_end)[:-1]


def event_moments(doc: dict, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Per start state, E[N(T)] and E[N(T)^2] for the transition count N(T).

    The mean is the last column of exp(T [[Q, q], [0, 0]]).  The second
    moment comes from the backward equations
        d/dt m2 = Q m2 + 2 Q_off m1 + q,   d/dt m1 = Q m1 + q,
    so one block generator [[Q, 2 Q_off, q], [0, Q, q], [0, 0, 0]], whose
    lower-right part is the mean's, gives both.
    """
    Q, q = generator(doc)
    size = Q.shape[0]
    col = sp.csr_matrix(q[:, None])
    off = Q - sp.diags(Q.diagonal())
    blocks = sp.bmat([
        [Q, 2.0 * off, col],
        [None, Q, col],
        [None, None, sp.csr_matrix((1, 1))],
    ])
    moments = _last_column(blocks, t_end)
    return moments[size:2 * size], moments[:size]


def initial_index(doc: dict) -> int:
    """Joint index of the model's point initial state."""
    cards = [p["cardinality"] for p in doc["processes"]]
    return int(np.dot(doc["initial_state"], place_values(cards)))


def rednt(values, cards) -> np.ndarray:
    """REDNT of every state: max over the state and its one-flip neighbours
    of own EDNT / neighbour EDNT, with 1 for a zero-EDNT state and +inf for
    a positive state next to a zero one."""
    v = np.asarray(values, dtype=float)
    local = local_states(cards)
    mult = place_values(cards)
    best = np.ones_like(v)
    idx = np.arange(v.size)
    for j, c in enumerate(cards):
        for shift in range(1, int(c)):
            nb = idx + (((local[:, j] + shift) % c) - local[:, j]) * mult[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(v[nb] == 0.0, np.inf, v / v[nb])
            best = np.maximum(best, ratio)
    best[v == 0.0] = 1.0
    return best


def fast_runs(times, threshold: float, min_length: int) -> list[tuple[int, int]]:
    """Maximal runs [first, last] of events whose gap to the previous event is
    strictly below `threshold`, of at least `min_length` events.  The first
    event of a trajectory is never fast."""
    runs = []
    start = None
    for i in range(1, len(times) + 1):
        fast = i < len(times) and times[i] - times[i - 1] < threshold
        if fast and start is None:
            start = i
        elif not fast and start is not None:
            if i - start >= min_length:
                runs.append((start, i - 1))
            start = None
    return runs


def jaccard(a, b, k: int) -> float:
    top_a, top_b = set(a[:k]), set(b[:k])
    return len(top_a & top_b) / len(top_a | top_b)
