"""Replicate seeding: the kernel's ``seed``, a port of numpy's SeedSequence,
and ``substream`` built on it, pinned to ``np.random.default_rng`` of the
same (master_seed, experiment_id, replicate) triple, with and without a
compiler."""

import shlex
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamrisk import _native
from streamrisk.distributions import substream

# Seed components of every width up to 64 bits, and the edges of one and two
# 32-bit words.
_WORDS_EDGES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])
_U64 = _WORDS_EDGES | st.integers(1, 64).flatmap(lambda bits: st.integers(0, 2**bits - 1))


@pytest.fixture(scope="module")
def kernel():
    kernel = _native.load("_kernel")
    if kernel is None:
        pytest.skip("the replicate kernel could not be built here")
    return kernel


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@given(master=_U64, experiment=_U64, first=st.integers(0, 10**7), count=st.integers(1, 5))
@example(master=2**64 - 1, experiment=2**64 - 1, first=10**7, count=1)
@example(master=0, experiment=0, first=0, count=1)
@settings(max_examples=300, deadline=None)
def test_seed_words_equal_seed_sequence(kernel, master, experiment, first, count):
    # Replicate first + k's four words are the ones numpy's PCG64 asks its
    # SeedSequence for, and substream's generator is default_rng's.
    words = np.empty((count, 4), dtype=np.uint64)
    kernel.seed(master, experiment, first, count, words.ctypes.data)
    for k in range(count):
        entropy = (master, experiment, first + k)
        assert words[k].tolist() == np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
    assert _state(substream(master, experiment, first)) == _state(np.random.default_rng((master, experiment, first)))


def test_substream_spawns_default_rngs_children(kernel):
    # spawn goes to a numpy SeedSequence of the same triple.
    for triple in [(0, 0, 0), (20240817, 3, 999), (2**64 - 1, 2**40, 10**7)]:
        got, want = substream(*triple), np.random.default_rng(triple)
        assert [_state(g) for g in got.spawn(2)] == [_state(g) for g in want.spawn(2)]
        assert got.random(5).tolist() == want.random(5).tolist()
        assert got.bit_generator.seed_seq.generate_state(3).tolist() == np.random.SeedSequence(triple).generate_state(3).tolist()


@pytest.mark.parametrize("position", range(3), ids=["master_seed", "experiment_id", "replicate"])
@pytest.mark.parametrize("value", [-1, 2**64, 2**65 + 1])
def test_substream_refuses_a_component_outside_64_bits(position, value):
    # ctypes would wrap it: 2**64 would seed as 0, and -1 as 2**64 - 1.
    triple = [5, 6, 7]
    triple[position] = value
    name = ("master_seed", "experiment_id", "replicate")[position]
    with pytest.raises(ValueError, match=f"^seed component {name} must be a 64-bit unsigned integer, got {value}$"):
        substream(*triple)


def test_substream_without_a_compiler_is_default_rng(monkeypatch):
    failing_cc = shlex.join([sys.executable, "-c", "raise SystemExit(1)"])
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: failing_cc)
    monkeypatch.setattr(_native, "_loaded", {})
    triples = [(0, 0, 0), (2**32, 1, 5), (2**64 - 1, 2**64 - 1, 10**7)]
    with pytest.warns(RuntimeWarning, match=r"^native library _kernel not built .*SeedSequence") as record:
        rngs = [substream(*triple) for triple in triples]
    assert len(record) == 1
    assert _native._loaded == {"_kernel": None}
    for rng, triple in zip(rngs, triples):
        assert type(rng.bit_generator.seed_seq) is np.random.SeedSequence
        assert _state(rng) == _state(np.random.default_rng(triple))
