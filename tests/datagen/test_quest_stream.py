"""``QuestGenerator.generate`` draws its uniforms in blocks; these tests
hold it to the PCG64 stream of the per-draw loop it replaced
(``reference_quest.py``): same database, same generator state after."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import QuestGenerator, QuestParams, quest
from tests.datagen.reference_quest import reference_generate

#: One-item patterns corrupted away 95 % of the time: about one
#: transaction in thirteen stays empty through all 50 picks and takes the
#: ``rng.integers`` fallback, each time flipping the buffered half-word.
FALLBACK = QuestParams(
    n_transactions=400, n_items=2, avg_txn_len=1, avg_pattern_len=1,
    n_patterns=3, corruption_mean=0.95, corruption_sd=0.0, seed=8,
)
#: Several default-size blocks.
LONG = QuestParams(n_transactions=2500, n_items=300, n_patterns=60, seed=3)


class CountingRng:
    """Delegates to a ``numpy.random.Generator``, counting the calls that
    mark a refill (``random``) and the fallback (``integers``)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = {"random": 0, "integers": 0}

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def assert_same_stream(params, rounds=2):
    """New and reference agree on the database and on the full
    bit-generator state, and keep agreeing on a second ``generate()``."""
    new, ref = QuestGenerator(params), QuestGenerator(params)
    new._rng = CountingRng(new._rng)
    for _ in range(rounds):
        got, want = new.generate(), reference_generate(ref)
        assert got.items.dtype == want.items.dtype
        assert got.offsets.dtype == want.offsets.dtype
        assert got.items.tobytes() == want.items.tobytes()
        assert got.offsets.tobytes() == want.offsets.tobytes()
        assert (got.n_items, got.name) == (want.n_items, want.name)
        assert new._rng.bit_generator.state == ref._rng.bit_generator.state
    return new._rng.calls


quest_params = st.builds(
    QuestParams,
    n_transactions=st.integers(1, 250),
    n_items=st.integers(2, 300),
    avg_txn_len=st.floats(0.5, 15),
    avg_pattern_len=st.floats(0.5, 8),
    n_patterns=st.integers(1, 40),
    correlation=st.floats(0, 1),
    corruption_mean=st.floats(0, 0.95),
    corruption_sd=st.floats(0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)


# A block of one pick's worth of doubles (``_BLOCK`` below ``need``) makes
# every pick refill: in the middle of every multi-pick transaction and
# between a pattern being carried and being used.
@settings(max_examples=50, deadline=None)
@given(params=quest_params, block=st.sampled_from([1, 37, 4096]))
@example(params=FALLBACK, block=1)
@example(params=FALLBACK, block=4096)
def test_generate_matches_reference_stream(params, block):
    with mock.patch.object(quest, "_BLOCK", block):
        assert_same_stream(params)


def test_fallback_is_reached():
    calls = assert_same_stream(FALLBACK, rounds=1)
    assert calls["integers"] >= 10
    assert calls["random"] > calls["integers"]  # each fallback forces a refill


def test_default_block_refills_several_times():
    calls = assert_same_stream(LONG, rounds=1)
    assert calls["random"] >= 5
    assert calls["integers"] == 0


@pytest.mark.parametrize("block", [1, 8])
def test_refill_mid_transaction_and_across_a_carry(block):
    # With a block this small there are more refills than transactions,
    # so some fall inside a transaction; T10.I4 overflows (and so
    # carries) in most transactions, and the next pick after a carry
    # refills.
    with mock.patch.object(quest, "_BLOCK", block):
        calls = assert_same_stream(
            QuestParams(n_transactions=300, n_items=100, seed=11), rounds=1
        )
    assert calls["random"] > 300
