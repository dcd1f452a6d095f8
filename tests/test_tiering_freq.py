"""Property-based tests (hypothesis) for the frequency statistics.

The tier-admission scorer (:class:`repro.tiering.freq.FreqStats`) must be
a pure function of the global access stream: training code feeds it
whatever batch segmentation the data loader happens to produce, and tier
placement must not depend on that framing.  These properties pin:

* determinism — same stream, same state, bit for bit;
* segmentation invariance — any split of the stream into ``record``
  calls leaves the EMA scores identical to one-shot recording (the
  per-access lazy-decay design);
* agreement with a naive one-access-at-a-time reference implementation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tiering import FreqStats

common = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

streams = st.lists(
    st.integers(min_value=0, max_value=15), min_size=0, max_size=200
)
decays = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)


def _cuts_to_slices(stream, cuts):
    bounds = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference(stream, decay, num_items=16):
    """One-access-at-a-time reference: explicit decay every step."""
    ema = np.zeros(num_items)
    for item in stream:
        ema *= decay
        ema[item] += 1.0
    return ema


@common
@given(streams, decays)
def test_deterministic(stream, decay):
    runs = []
    for _ in range(2):
        f = FreqStats(16, decay=decay)
        f.record(np.array(stream, dtype=np.int64))
        runs.append(f.scores().copy())
    np.testing.assert_array_equal(runs[0], runs[1])


@common
@given(
    streams,
    decays,
    st.lists(st.integers(min_value=0, max_value=200), max_size=6),
)
def test_invariant_to_batch_segmentation(stream, decay, cuts):
    one_shot = FreqStats(16, decay=decay)
    one_shot.record(np.array(stream, dtype=np.int64))

    segmented = FreqStats(16, decay=decay)
    for piece in _cuts_to_slices(stream, cuts):
        segmented.record(np.array(piece, dtype=np.int64))

    assert segmented.pos == one_shot.pos == len(stream)
    np.testing.assert_allclose(
        segmented.scores(), one_shot.scores(), rtol=1e-12, atol=1e-300
    )


@common
@given(streams, decays)
def test_matches_naive_reference(stream, decay):
    f = FreqStats(16, decay=decay)
    f.record(np.array(stream, dtype=np.int64))
    np.testing.assert_allclose(
        f.scores(), _reference(stream, decay), rtol=1e-9, atol=1e-300
    )


def test_fold_refuses_ids_too_wide_for_the_sort_key():
    f = FreqStats(16)
    f.num_items = 1 << 60  # a table this long cannot pack (item, position) in int64
    with pytest.raises(ValueError, match="cannot pack"):
        f.record(np.full(8, 1 << 59, dtype=np.int64))
    assert f.pos == 0 and not f.scores().any()  # refused before anything moved
