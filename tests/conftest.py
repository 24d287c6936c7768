import math
import random

import numpy as np
import pytest
from hypothesis import settings

from ctbn_sentry import (Cim, CtbnModel, DiGraph, ProcessSpec, build_replicator_ctbn,
                         experiment_spec)
from ctbn_sentry import model as model_module
from ctbn_sentry import sentry as sentry_module
from ctbn_sentry import simulate as simulate_module

# Property tests draw the same examples on every run: the seed comes from each
# test's own hash, and no stored failure of an earlier run is replayed.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# Canonical three-alarm chain rates, written out longhand so the tests stay
# independent of the replicator builder.
CHAIN3_A = [[[-1.0, 1.0], [5.0, -5.0]]]
CHAIN3_B = [
    [[-0.1, 0.1], [15.0, -15.0]],   # parent off: pulled toward 0
    [[-15.0, 15.0], [0.1, -0.1]],   # parent on: pulled toward 1
]
CHAIN3_C = CHAIN3_B


@pytest.fixture(scope="session")
def chain3():
    return CtbnModel(
        (ProcessSpec("A", 2), ProcessSpec("B", 2, ("A",)), ProcessSpec("C", 2, ("B",))),
        (Cim(CHAIN3_A), Cim(CHAIN3_B), Cim(CHAIN3_C)),
        initial_state=(0, 0, 0),
    )


@pytest.fixture()
def no_sampling(monkeypatch):
    """Make any trajectory sampling fail, so a check must come before it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("sampled before validating")
    monkeypatch.setattr(sentry_module, "_steps", forbidden)
    monkeypatch.setattr(simulate_module, "_steps", forbidden)


@pytest.fixture()
def no_flat_table(monkeypatch):
    """Make any build of a model's flat joint-state tables fail; the move
    table that intensity_matrix reads is still built."""
    def forbidden(table):
        raise AssertionError("built the flat tables")
    monkeypatch.setattr(model_module.RateTable, "flat", property(forbidden))


@pytest.fixture(scope="session")
def chain3_spec():
    return experiment_spec("chain3")


def toggler_model(rate_up=2.0, rate_down=None):
    down = rate_up if rate_down is None else rate_down
    return CtbnModel(
        (ProcessSpec("X", 2),),
        (Cim([[[-rate_up, rate_up], [down, -down]]]),),
        initial_state=(0,),
    )


def chain_model(n: int) -> CtbnModel:
    """An n-process replicator chain, 2^n states."""
    names = tuple(f"P{j:02d}" for j in range(n))
    return build_replicator_ctbn(DiGraph(names, tuple(zip(names[:-1], names[1:]))),
                                 {names[0]}, (1.0, 5.0), 15.0, 0.1)


def chain13_model() -> CtbnModel:
    """A 13-process replicator chain, 8 192 states: the benchmark's Monte Carlo model."""
    return chain_model(13)


def zero_rate_model(n=1):
    procs = tuple(ProcessSpec(f"X{j}", 2) for j in range(n))
    cims = tuple(Cim([[[0.0, 0.0], [0.0, 0.0]]]) for _ in range(n))
    return CtbnModel(procs, cims, initial_state=(0,) * n)


def independent_togglers(rates_up, rates_down) -> CtbnModel:
    """Parentless binary processes; process j toggles at rates_up[j] / rates_down[j]."""
    procs = tuple(ProcessSpec(f"T{j:02d}", 2) for j in range(len(rates_up)))
    cims = tuple(Cim([[[-u, u], [d, -d]]]) for u, d in zip(rates_up, rates_down))
    return CtbnModel(procs, cims, initial_state=(0,) * len(procs))


def make_random_model(rng: random.Random, max_states=16, max_parents=2,
                      rate_lo=0.1, rate_hi=1.5, log_rates=False) -> CtbnModel:
    """A random valid model with at most `max_states` joint states.

    Rates are uniform on [rate_lo, rate_hi], or log-uniform with `log_rates`.
    """
    cards = []
    while True:
        card = rng.choice((2, 2, 3))
        product = card
        for c in cards:
            product *= c
        if product > max_states:
            break
        cards.append(card)
        if len(cards) >= 4 and rng.random() < 0.5:
            break
    if not cards:
        cards = [2]
    n = len(cards)
    names = [f"X{j}" for j in range(n)]
    processes = []
    for j in range(n):
        others = [names[i] for i in range(n) if i != j]
        k = rng.randint(0, min(max_parents, len(others)))
        parents = tuple(rng.sample(others, k))
        processes.append(ProcessSpec(names[j], cards[j], parents))

    cims = []
    for j, p in enumerate(processes):
        configs = 1
        for parent in p.parents:
            configs *= cards[names.index(parent)]
        mats = np.zeros((configs, cards[j], cards[j]))
        for cfg in range(configs):
            for r in range(cards[j]):
                for c in range(cards[j]):
                    if c != r:
                        mats[cfg, r, c] = (
                            math.exp(rng.uniform(math.log(rate_lo), math.log(rate_hi)))
                            if log_rates else rng.uniform(rate_lo, rate_hi))
                mats[cfg, r, r] = -mats[cfg, r].sum()
        cims.append(Cim(mats))
    return CtbnModel(tuple(processes), tuple(cims), initial_state=(0,) * n)


def random_trajectories(rng: np.random.Generator, n: int, card: int,
                        sizes=(0, 1, 12, 30, 2, 45, 0, 9)) -> list:
    """Trajectories of `n` processes with `card` local states and the given
    event counts, at random gaps of 0.05 to 1.5 (state changes need not be real
    changes)."""
    from ctbn_sentry import Trajectory

    out = []
    for size in sizes:
        times = np.cumsum(rng.uniform(0.05, 1.5, size))
        out.append(Trajectory(tuple(rng.integers(0, card, n).tolist()), times,
                              rng.integers(0, n, size), rng.integers(0, card, size),
                              float(times[-1]) if size else 0.0))
    return out
