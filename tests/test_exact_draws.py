"""The host-side draws take numpy's own results with less work.

``WorkloadManager.select_system`` and ``OltpGenerator.make_transaction``
sit on every transaction's path.  Each is checked here against the code
it replaced, kept as an oracle: the same answer for the same stream,
and the stream left at the same position afterwards.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import OltpConfig, WlmConfig
from repro.mvs.wlm import WorkloadManager
from repro.simkernel import Simulator
from repro.workloads.oltp import OltpGenerator


# ------------------------------------------------------------- WLM ----
def _node(name, engines, speed, alive=True):
    config = SimpleNamespace(effective_engines=lambda: engines, speed=speed)
    return SimpleNamespace(name=name, alive=alive, cpu=SimpleNamespace(config=config))


def _wlm(seed):
    return WorkloadManager(Simulator(), WlmConfig(), np.random.default_rng(seed))


def _choice_oracle(wlm, candidates):
    """``select_system`` as it was: ``Generator.choice`` with ``p``."""
    live = [n for n in candidates if n.alive]
    w = wlm._weights(live)
    return live[int(wlm.rng.choice(len(live), p=w / w.sum()))]


@pytest.mark.parametrize("n", range(1, 33))
def test_select_system_matches_choice(n):
    shapes = np.random.default_rng(1000 + n)
    fast, slow = _wlm(n), _wlm(n)
    for _ in range(60):
        engines = shapes.integers(1, 11, size=n)
        speeds = shapes.uniform(0.05, 4.0, size=n)
        nodes = [
            _node(f"S{i}", float(e), float(s))
            for i, (e, s) in enumerate(zip(engines, speeds))
        ]
        # a dead candidate is never picked and changes no weight
        dead = _node("DEAD", 4.0, 1.0, alive=False)
        nodes.insert(int(shapes.integers(n + 1)), dead)
        assert fast.select_system(nodes) is _choice_oracle(slow, nodes)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert fast.rng.random() == slow.rng.random()


def test_select_system_takes_a_draw_with_one_live_system():
    wlm = _wlm(5)
    only = _node("S0", 1.0, 1.0)
    dead = _node("S1", 2.0, 1.0, alive=False)
    assert wlm.select_system([dead, only]) is only
    expected = np.random.default_rng(5)
    expected.random()
    assert wlm.rng.bit_generator.state == expected.bit_generator.state


# ------------------------------------------------------------ OLTP ----
def _old_sample(sampler, k):
    """``PageSampler.sample`` as it was: a numpy scalar per draw."""
    out = set()
    attempts = 0
    while len(out) < k and attempts < 8 * k:
        u = sampler.rng.random(k)
        for page in np.searchsorted(sampler._cum, u):
            out.add(int(sampler._perm[min(page, sampler.n_pages - 1)]))
            if len(out) >= k:
                break
        attempts += k
    while len(out) < k:
        out.add(int(sampler.rng.integers(sampler.n_pages)))
    return sorted(out)


def _old_make(gen, home):
    """``OltpGenerator.make_transaction``'s reads and writes as it was."""
    k = gen.config.reads_per_txn + gen.config.writes_per_txn
    w = gen.config.writes_per_txn
    if gen.partition_affinity:
        offset, seg_sampler = gen._segments[home % len(gen._segments)]
        n_remote = int(gen.rng.binomial(k, gen.remote_fraction))
        local = [offset + p for p in _old_sample(seg_sampler, k - n_remote)]
        remote = _old_sample(gen.sampler, n_remote) if n_remote else []
        pages = sorted(set(local) | set(remote))
        while len(pages) < k:
            pages.append(int(gen.rng.integers(gen.n_pages)))
        pages = sorted(pages)[:k]
    else:
        pages = _old_sample(gen.sampler, k)
    idx = gen.rng.permutation(k)
    reads = sorted(pages[i] for i in idx[w:])
    writes = sorted(pages[i] for i in idx[:w])
    return reads, writes


def _generator(config, n_pages, affinity):
    return OltpGenerator(
        Simulator(),
        config,
        n_pages,
        4,
        np.random.default_rng(11),
        router=None,
        partition_affinity=affinity,
        remote_fraction=0.3,
    )


@pytest.mark.parametrize(
    "reads,writes,theta,n_pages",
    [
        (10, 3, 0.6, 50_000),  # the default mix
        (4, 8, 0.6, 20_000),  # write-heavy
        (10, 3, 1.2, 64),  # so skewed that rejection often tops up
        (2, 1, 0.0, 16),  # uniform over a tiny page space
    ],
)
@pytest.mark.parametrize("affinity", [False, True])
def test_make_transaction_matches_numpy_scalar_code(
    reads, writes, theta, n_pages, affinity
):
    config = OltpConfig(reads_per_txn=reads, writes_per_txn=writes, zipf_theta=theta)
    fast = _generator(config, n_pages, affinity)
    slow = _generator(config, n_pages, affinity)
    for i in range(400):
        txn = fast.make_transaction(i % 4)
        assert (txn.reads, txn.writes) == _old_make(slow, i % 4), i
        assert all(type(p) is int for p in txn.reads + txn.writes)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
