"""Property-based tests (hypothesis) for the frequency statistics.

The tier-admission scorer (:class:`repro.tiering.freq.FreqStats`) must be
a pure function of the global access stream: training code feeds it
whatever batch segmentation the data loader happens to produce, and tier
placement must not depend on that framing.  These properties pin:

* determinism — same stream, same state, bit for bit;
* segmentation invariance — any split of the stream into ``record``
  calls leaves counts / window / EMA scores identical to one-shot
  recording (the per-access lazy-decay design);
* agreement with a naive one-access-at-a-time reference implementation;
* deterministic ``topk`` tie-breaking (smaller id wins).
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
windows = st.integers(min_value=1, max_value=32)


def _cuts_to_slices(stream, cuts):
    bounds = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference(stream, decay, window, num_items=16):
    """One-access-at-a-time reference: explicit decay every step."""
    ema = np.zeros(num_items)
    counts = np.zeros(num_items, dtype=np.int64)
    for item in stream:
        ema *= decay
        ema[item] += 1.0
        counts[item] += 1
    win = np.zeros(num_items, dtype=np.int64)
    for item in stream[-window:]:
        win[item] += 1
    return ema, counts, win


@common
@given(streams, decays, windows)
def test_deterministic(stream, decay, window):
    runs = []
    for _ in range(2):
        f = FreqStats(16, decay=decay, window=window)
        f.record(np.array(stream, dtype=np.int64))
        runs.append((f.counts.copy(), f.win_counts.copy(), f.scores().copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])
    np.testing.assert_array_equal(runs[0][2], runs[1][2])


@common
@given(
    streams,
    decays,
    windows,
    st.lists(st.integers(min_value=0, max_value=200), max_size=6),
)
def test_invariant_to_batch_segmentation(stream, decay, window, cuts):
    one_shot = FreqStats(16, decay=decay, window=window)
    one_shot.record(np.array(stream, dtype=np.int64))

    segmented = FreqStats(16, decay=decay, window=window)
    for piece in _cuts_to_slices(stream, cuts):
        segmented.record(np.array(piece, dtype=np.int64))

    assert segmented.pos == one_shot.pos == len(stream)
    np.testing.assert_array_equal(segmented.counts, one_shot.counts)
    np.testing.assert_array_equal(segmented.win_counts, one_shot.win_counts)
    np.testing.assert_allclose(
        segmented.scores(), one_shot.scores(), rtol=1e-12, atol=1e-300
    )


@common
@given(streams, decays, windows)
def test_matches_naive_reference(stream, decay, window):
    f = FreqStats(16, decay=decay, window=window)
    f.record(np.array(stream, dtype=np.int64))
    ref_ema, ref_counts, ref_win = _reference(stream, decay, window)
    np.testing.assert_array_equal(f.counts, ref_counts)
    np.testing.assert_array_equal(f.win_counts, ref_win)
    np.testing.assert_allclose(f.scores(), ref_ema, rtol=1e-9, atol=1e-300)


@common
@given(streams, st.integers(min_value=0, max_value=20))
def test_topk_deterministic_tiebreak(stream, k):
    f = FreqStats(16, decay=1.0, window=8)  # decay 1.0 maximizes ties
    f.record(np.array(stream, dtype=np.int64))
    top = f.topk(k)
    assert len(top) == min(k, 16)
    scores = f.scores()
    # Scores are non-increasing along topk, and ties break to smaller id.
    for a, b in zip(top, top[1:]):
        assert scores[a] > scores[b] or (scores[a] == scores[b] and a < b)
    # Everything outside topk scores no higher than the last member.
    if len(top) not in (0, 16):
        rest = np.setdiff1d(np.arange(16), top)
        assert scores[rest].max() <= scores[top[-1]]


def test_fold_refuses_ids_too_wide_for_the_sort_key():
    f = FreqStats(16)
    f.num_items = 1 << 60  # a table this long cannot pack (item, position) in int64
    with pytest.raises(ValueError, match="cannot pack"):
        f.record(np.full(8, 1 << 59, dtype=np.int64))
    assert f.pos == 0 and not f.counts.any()  # refused before anything moved
