"""Tests for the tiered embedding store (repro.tiering)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DLRM, Adagrad, MLPSpec, ModelConfig, Trainer, uniform_tables
from repro.core.config import InteractionType, TableSpec
from repro.core.embedding import EmbeddingTable
from repro.core.quantization import QuantizedEmbeddingTable
from repro.data import SyntheticDataGenerator
from repro.data.distributions import sample_discrete_zipf
from repro.hardware import DRAM_TIER, NVME_TIER, SCM_TIER, MemoryTierSpec
from repro.obs import MetricsRegistry
from repro.tiering import (
    FreqStats,
    PolicyCache,
    TierCostModel,
    TieredEmbeddingTable,
    TieredStoreConfig,
    TierStats,
    lru_hit_rate,
    policy_hit_rate_pmf,
    zipf_hit_rate,
)
from repro.tiering import store


# ---------------------------------------------------------------------------
# MemoryTierSpec / TierCostModel
# ---------------------------------------------------------------------------


class TestTierSpecs:
    def test_access_time_is_latency_plus_transfer(self):
        tier = MemoryTierSpec("t", bandwidth=1e9, latency_s=1e-6)
        assert tier.access_s(0) == pytest.approx(1e-6)
        assert tier.access_s(1e9) == pytest.approx(1e-6 + 1.0)

    def test_builtin_tiers_ordered_by_speed(self):
        row = 256.0
        assert DRAM_TIER.access_s(row) < SCM_TIER.access_s(row)
        assert SCM_TIER.access_s(row) < NVME_TIER.access_s(row)

    @pytest.mark.parametrize("kw", [
        dict(bandwidth=0.0, latency_s=1e-6),
        dict(bandwidth=-1.0, latency_s=1e-6),
        dict(bandwidth=1e9, latency_s=-1e-9),
    ])
    def test_invalid_specs_rejected(self, kw):
        with pytest.raises(ValueError):
            MemoryTierSpec("bad", **kw)

    def test_cost_model_components(self):
        m = TierCostModel(hot=DRAM_TIER, cold=SCM_TIER)
        row_b, chunk_b = 64.0, 512.0
        assert m.miss_penalty_s(row_b) == pytest.approx(
            m.cold_access_s(row_b) - m.hot_access_s(row_b)
        )
        assert m.chunk_move_s(chunk_b) == pytest.approx(
            SCM_TIER.access_s(chunk_b) + DRAM_TIER.access_s(chunk_b)
        )

    def test_predicted_overhead_formula(self):
        m = TierCostModel()
        row_b, chunk_b = 64.0, 512.0
        got = m.predicted_overhead_s(1000, 0.9, row_b, chunk_b, moves_per_miss=1.0)
        misses = 1000 * 0.1
        want = misses * (m.miss_penalty_s(row_b) + m.chunk_move_s(chunk_b))
        assert got == pytest.approx(want)
        # freq-style steady state: no movements, only the miss penalty.
        got0 = m.predicted_overhead_s(1000, 0.9, row_b, chunk_b, moves_per_miss=0.0)
        assert got0 == pytest.approx(misses * m.miss_penalty_s(row_b))

    def test_predicted_overhead_rejects_bad_hit_rate(self):
        with pytest.raises(ValueError):
            TierCostModel().predicted_overhead_s(10, 1.5, 64, 512, 1.0)


# ---------------------------------------------------------------------------
# PolicyCache
# ---------------------------------------------------------------------------


class TestPolicyCache:
    def test_lru_evicts_least_recently_used(self):
        c = PolicyCache(2, "lru")
        c.access(np.array([1, 2]))
        c.access(np.array([1]))       # 1 is now more recent than 2
        c.access(np.array([3]))       # evicts 2
        assert 1 in c and 3 in c and 2 not in c
        assert c.evictions == 1

    def test_lfu_evicts_least_frequent(self):
        c = PolicyCache(2, "lfu")
        c.access(np.array([1, 1, 1, 2]))
        c.access(np.array([3]))       # 2 has count 1 < 1's count 3
        assert 1 in c and 3 in c and 2 not in c

    def test_freq_admission_rejects_cold_keys(self):
        scores = {1: 5.0, 2: 4.0, 3: 1.0, 4: 9.0}
        scorer = lambda ks: np.array([scores[int(k)] for k in ks])
        c = PolicyCache(2, "freq", scorer=scorer)
        c.access(np.array([1, 2]))    # fills
        c.access(np.array([3]))       # score 1 < victim score 4 -> rejected
        assert 3 not in c and c.rejections == 1
        c.access(np.array([4]))       # score 9 > victim (2 @ 4.0) -> admitted
        assert 4 in c and 2 not in c
        assert c.insertions == 3 and c.evictions == 1

    def test_capacity_zero_never_admits(self):
        c = PolicyCache(0, "lru")
        hits = c.access(np.array([1, 1, 1]))
        assert hits == 0 and len(c) == 0 and c.misses == 3

    def test_hit_rate_counts_cold_fills(self):
        c = PolicyCache(4, "lru")
        c.access(np.array([1, 2, 3, 1, 2, 3, 1, 2, 3]))
        # 3 cold fills, 6 hits.
        assert c.hits == 6 and c.misses == 3
        assert c.hit_rate == pytest.approx(6 / 9)

    def test_freq_requires_scorer(self):
        with pytest.raises(ValueError, match="scorer"):
            PolicyCache(2, "freq")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            PolicyCache(2, "mru")


# ---------------------------------------------------------------------------
# FreqStats (basics; stream-invariance properties live in test_tiering_freq)
# ---------------------------------------------------------------------------


class TestFreqStats:
    def test_scores_decay_toward_recent(self):
        f = FreqStats(4, decay=0.5)
        f.record(np.array([0, 1]))
        s = f.scores()
        # 0 was accessed one step before 1, so its score decayed once more.
        assert s[1] == pytest.approx(1.0)
        assert s[0] == pytest.approx(0.5)
        assert s[2] == 0.0

    def test_out_of_range_rejected(self):
        f = FreqStats(4)
        with pytest.raises(IndexError):
            f.record(np.array([4]))
        with pytest.raises(IndexError):
            f.record(np.array([-1]))


# ---------------------------------------------------------------------------
# bytes_per_row — the tier-capacity pricing contract
# ---------------------------------------------------------------------------


class TestBytesPerRow:
    def _table(self, dtype):
        spec = TableSpec("t", hash_size=32, dim=16, mean_lookups=2.0)
        return EmbeddingTable(spec, np.random.default_rng(0), dtype=dtype)

    def test_flat_tables_priced_by_dtype(self):
        assert self._table(np.float64).bytes_per_row() == 16 * 8
        assert self._table(np.float32).bytes_per_row() == 16 * 4

    @pytest.mark.parametrize("bits,want", [(8, 16 + 4), (4, 8 + 4), (2, 4 + 4)])
    def test_quantized_tables_priced_by_bits(self, bits, want):
        q = QuantizedEmbeddingTable(self._table(np.float64), bits)
        assert q.bytes_per_row() == pytest.approx(want)

    def test_hot_bytes_capacity_uses_row_width(self):
        cfg = TieredStoreConfig(hot_fraction=None, hot_bytes=1024.0, chunk_rows=2)
        # f64 rows are 128 B -> 8 rows -> 4 chunks; f32 rows 64 B -> 8 chunks.
        assert cfg.capacity_chunks(32, 128.0) == 4
        assert cfg.capacity_chunks(32, 64.0) == 8
        # Quantized int8 rows (dim 16 -> 20 B) pack far more rows per byte.
        assert cfg.capacity_chunks(1024, 20.0) == 25


# ---------------------------------------------------------------------------
# TieredStoreConfig validation
# ---------------------------------------------------------------------------


class TestTieredStoreConfig:
    @pytest.mark.parametrize("kw", [
        dict(hot_fraction=None, hot_bytes=None),
        dict(hot_fraction=1.5),
        dict(hot_fraction=-0.1),
        dict(hot_bytes=-1.0),
        dict(chunk_rows=0),
        dict(policy="mru"),
        dict(ema_decay=1.5),
        dict(ema_decay=0.0),
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            TieredStoreConfig(**kw)

    def test_capacity_whole_chunks_capped_at_table(self):
        cfg = TieredStoreConfig(hot_fraction=1.0, chunk_rows=8)
        # A budget of every row holds every chunk, the partial 13th too.
        assert cfg.capacity_chunks(100, 64.0) == 13
        # Short of the whole table, the budget buys whole chunks only.
        assert TieredStoreConfig(hot_fraction=0.99, chunk_rows=8).capacity_chunks(
            100, 64.0
        ) == 12
        # chunk_rows=1: a full hot fraction covers every chunk exactly.
        assert TieredStoreConfig(hot_fraction=1.0, chunk_rows=1).capacity_chunks(
            100, 64.0
        ) == 100


# ---------------------------------------------------------------------------
# TieredEmbeddingTable: accounting + bit identity
# ---------------------------------------------------------------------------


def _small_config(dtype="float64"):
    return ModelConfig(
        name="tiny-tier",
        num_dense=4,
        tables=uniform_tables(3, 200, dim=8, mean_lookups=3.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((8,)),
        interaction=InteractionType.CONCAT,
        compute_dtype=dtype,
    )


def _train(model, config, steps=4, batch=32, seed=0, metrics=None):
    gen = SyntheticDataGenerator(config, rng=seed, seed_teacher=True)
    trainer = Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        metrics=metrics,
    )
    return [trainer.train_step(gen.batch(batch)) for _ in range(steps)]


class TestTieredTable:
    def test_accounting_invariants(self):
        spec = TableSpec("t", hash_size=64, dim=4, mean_lookups=2.0)
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(hot_fraction=0.25, chunk_rows=4, policy="lru"),
        )
        rows = np.random.default_rng(1).integers(0, 64, size=500)
        table.record_accesses(rows)
        s = table.stats
        assert s.accesses == 500
        assert s.hot_hits + s.cold_misses == 500
        assert s.promotions <= s.cold_misses
        assert table.hot_rows == len(table.hot_chunks) * table.chunk_rows
        assert table.hot_rows <= table.hot_capacity_rows
        assert s.total_time_s > 0 and s.overhead_s >= 0

    @pytest.mark.parametrize("policy", ["freq", "lru"])
    @pytest.mark.parametrize("budget", [
        dict(hot_fraction=1.0),
        dict(hot_fraction=None, hot_bytes=10 * 4 * 8.0),
    ])
    def test_whole_table_budget_holds_the_partial_chunk(self, policy, budget):
        # 10 rows in 4-row chunks: the third chunk holds only rows 8 and 9.
        spec = TableSpec("t", hash_size=10, dim=4, mean_lookups=1.0)
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(chunk_rows=4, policy=policy, **budget),
        )
        assert table.num_chunks == 3
        table.record_accesses(np.arange(10))  # one warm pass
        warm = table.stats.snapshot()
        for _ in range(50):
            table.record_accesses(np.arange(10))
        steady = table.stats.delta(warm)
        assert (steady.hit_rate, steady.promotions) == (1.0, 0)

    @pytest.mark.parametrize("policy", ["freq", "lru"])
    def test_tier_state_is_chunk_sized(self, policy):
        """Nothing the tiered table adds over the flat one, nor anything
        inside what it adds, holds an array longer than its chunk count:
        per-row bookkeeping would grow with the table, not the granule."""
        spec = TableSpec("t", hash_size=512, dim=4, mean_lookups=2.0)
        flat = EmbeddingTable(spec, np.random.default_rng(0))
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(hot_fraction=0.25, chunk_rows=8, policy=policy),
        )
        table.record_accesses(np.random.default_rng(1).integers(0, 512, size=2000))
        sizes = {}
        for name in set(vars(table)) - set(vars(flat)):
            value = getattr(table, name)
            inner = vars(value).items() if hasattr(value, "__dict__") else ()
            for key, v in [(name, value), *((f"{name}.{k}", v) for k, v in inner)]:
                if isinstance(v, np.ndarray):
                    sizes[key] = v.size
        assert table.num_chunks == 64
        assert {k: n for k, n in sizes.items() if n > table.num_chunks} == {}

    def test_freq_policy_rejections_skip_movement(self):
        spec = TableSpec("t", hash_size=64, dim=4, mean_lookups=2.0)
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(hot_fraction=0.125, chunk_rows=4, policy="freq"),
        )
        # Skewed stream: a few hot rows dominate; the tail gets rejected.
        rng = np.random.default_rng(2)
        hot = rng.integers(0, 8, size=400)
        tail = rng.integers(8, 64, size=100)
        table.record_accesses(np.concatenate([hot, tail]))
        s = table.stats
        assert s.rejected > 0
        assert s.promotions + s.rejected == s.cold_misses
        # Rejected misses charge no move time.
        assert s.move_time_s == pytest.approx(
            s.promotions * table.cost_model.chunk_move_s(
                table.bytes_per_row() * table.chunk_rows
            )
        )

    def test_stats_delta_roundtrip(self):
        s = TierStats(hot_hits=10, cold_misses=5, promotions=2,
                      hot_access_s=0.1, cold_access_s=0.4, chunk_move_s=0.25)
        assert (s.hot_time_s, s.cold_time_s, s.move_time_s) == (1.0, 2.0, 0.5)
        assert s.rejected == 3
        snap = s.snapshot()
        s.hot_hits += 3
        s.cold_misses += 1
        d = s.delta(snap)
        assert d.hot_hits == 3 and d.cold_misses == 1 and d.promotions == 0
        assert d.overhead_s == pytest.approx(0.4 - 0.1)

    @pytest.mark.parametrize("hot_fraction", [0.0, 0.05, 1.0])
    def test_step_overheads_add_up_to_the_run(self, hot_fraction):
        # overhead = misses * (cold - hot) + promotions * move in *every*
        # window, zero-hit ones included, so per-step deltas sum to the run.
        spec = TableSpec("t", hash_size=400, dim=4, mean_lookups=2.0)
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(hot_fraction=hot_fraction, chunk_rows=4),
        )
        rng = np.random.default_rng(3)
        steps = []
        for n in (1, 40, 0, 200, 3):  # tiny steps: zero-hit windows happen
            before = table.stats.snapshot()
            table.record_accesses(rng.integers(0, 400, size=n))
            steps.append(table.stats.delta(before))
        run = table.stats
        penalty = table.cost_model.miss_penalty_s(table.bytes_per_row())
        move = table.cost_model.chunk_move_s(table.bytes_per_row() * 4)
        for d in steps + [run]:
            assert d.overhead_s == pytest.approx(
                d.cold_misses * penalty + d.promotions * move, rel=1e-12, abs=0
            )
        assert any(d.accesses and not d.hot_hits for d in steps)
        for field in ("hot_hits", "cold_misses", "promotions", "rejected"):
            assert sum(getattr(d, field) for d in steps) == getattr(run, field)
        assert sum(d.overhead_s for d in steps) == pytest.approx(
            run.overhead_s, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("hot_fraction", [0.0, 0.1, 1.0])
    def test_bit_identical_to_flat_table(self, dtype, hot_fraction):
        config = _small_config(dtype)
        flat = DLRM(config, rng=7)
        tiered = DLRM(
            config, rng=7,
            tiering=TieredStoreConfig(hot_fraction=hot_fraction, chunk_rows=4),
        )
        flat_losses = _train(flat, config, seed=3)
        tiered_losses = _train(tiered, config, seed=3)
        assert flat_losses == tiered_losses
        for ft, tt in zip(flat.embedding_tables(), tiered.embedding_tables()):
            np.testing.assert_array_equal(ft.weight, tt.weight)
        for fp, tp in zip(flat.dense_parameters(), tiered.dense_parameters()):
            np.testing.assert_array_equal(fp.value, tp.value)

    def test_inference_forward_not_accounted(self):
        config = _small_config()
        model = DLRM(config, rng=0, tiering=TieredStoreConfig(hot_fraction=0.1))
        gen = SyntheticDataGenerator(config, rng=0)
        model.predict_proba(gen.batch(16))
        for t in model.embedding_tables():
            assert t.stats.accesses == 0


class TestBatchedAdmission:
    """``record_accesses`` replays a whole stream through "freq" admission
    in one pass; the per-access :class:`PolicyCache` loop it replaced is
    the reference, and counters and hot set must agree after every call."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_equals_the_per_access_loop(self, data):
        chunk_rows = data.draw(st.integers(1, 8), label="chunk_rows")
        hash_size = data.draw(st.integers(1, 96), label="hash_size")
        num_chunks = -(-hash_size // chunk_rows)
        hot_chunks = data.draw(
            st.sampled_from([0, 1, max(1, num_chunks // 3), num_chunks + 1]),
            label="hot_chunks",
        )
        decay = data.draw(st.sampled_from([1.0, 0.5, 0.999]), label="ema_decay")
        streams = data.draw(
            st.lists(
                st.lists(st.integers(0, hash_size - 1), max_size=80),
                min_size=1, max_size=6,
            ),
            label="streams",
        )
        spec = TableSpec("t", hash_size=hash_size, dim=4, mean_lookups=1.0)
        row_bytes = 4 * 8
        table = TieredEmbeddingTable(
            spec, np.random.default_rng(0),
            tiering=TieredStoreConfig(
                hot_fraction=None, hot_bytes=hot_chunks * chunk_rows * row_bytes,
                chunk_rows=chunk_rows, policy="freq", ema_decay=decay,
            ),
        )
        assert table.capacity_chunks == min(hot_chunks, num_chunks)

        scores = FreqStats(num_chunks, decay=decay)
        cache = PolicyCache(table.capacity_chunks, "freq", scorer=scores.scores)
        hits = misses = promotions = rejected = 0
        for rows in streams:
            table.record_accesses(np.array(rows, dtype=np.int64))
            chunks = np.array(rows, dtype=np.int64) // chunk_rows
            scores.record(chunks)
            for chunk in chunks.tolist():
                if cache.touch(chunk):
                    hits += 1
                elif cache.insert(chunk)[0]:
                    misses += 1
                    promotions += 1
                else:
                    misses += 1
                    rejected += 1
            s = table.stats
            assert (s.hot_hits, s.cold_misses, s.promotions, s.rejected) == (
                hits, misses, promotions, rejected
            )
            assert table.hot_chunks.tolist() == sorted(cache.keys().tolist())

    @settings(deadline=None)
    @given(st.data())
    def test_admission_rule_is_a_prefix_count(self, data):
        """An entry is admitted iff fewer than ``capacity`` of the hot set's
        and the earlier entries' scores are >= its own (halves tie often)."""
        capacity = data.draw(st.integers(1, 12), label="capacity")
        score = st.one_of(st.integers(0, 8).map(lambda k: k / 2), st.floats(0, 4))
        hot = np.array(data.draw(st.lists(score, max_size=capacity), label="hot"))
        scores = np.array(data.draw(st.lists(score, max_size=40), label="scores"))
        want = [
            np.count_nonzero(hot >= s) + np.count_nonzero(scores[:i] >= s) < capacity
            for i, s in enumerate(scores)
        ]
        assert store._admissions(hot, scores, capacity).tolist() == want

    @pytest.mark.parametrize("decay", [1.0, 0.999])
    def test_long_streams_equal_the_per_access_loop(self, decay, monkeypatch):
        """Thousands of accesses over many more chunks than the hot tier
        holds, so the admission bounds leave entries to the heap walk and
        the hot set rejects: Zipf streams, and ladders whose first
        occurrences arrive in descending and in ascending score order."""
        chunk_rows, num_chunks, capacity = 4, 1024, 48
        table = TieredEmbeddingTable(
            TableSpec("t", hash_size=num_chunks * chunk_rows, dim=4, mean_lookups=1.0),
            np.random.default_rng(0),
            tiering=TieredStoreConfig(
                hot_fraction=None, hot_bytes=capacity * chunk_rows * 4 * 8,
                chunk_rows=chunk_rows, policy="freq", ema_decay=decay,
            ),
        )
        assert table.capacity_chunks == capacity
        rng = np.random.default_rng(11)

        def zipf(n):
            return (rng.zipf(1.2, n) - 1) % table.hash_size

        def ladder(rungs):
            # rung r touches its chunks in one fixed order; a chunk on more
            # rungs is touched more and later, so it scores higher
            chunks = rng.permutation(num_chunks)[: len(rungs[0])]
            ids = np.concatenate([chunks[r] for r in rungs])
            return ids * chunk_rows + rng.integers(0, chunk_rows, len(ids))

        m = 80
        descending = ladder([np.arange(m - r) for r in range(m)])
        ascending = ladder([np.arange(r, m) for r in range(m)])
        streams = [zipf(2000), zipf(4000), descending, zipf(3000), ascending, zipf(2500)]
        assert all(2000 <= len(rows) <= 4000 for rows in streams)

        walked = []
        heapreplace = store.heapq.heapreplace
        monkeypatch.setattr(
            store.heapq, "heapreplace", lambda h, x: walked.append(x) or heapreplace(h, x)
        )
        scores = FreqStats(num_chunks, decay=decay)
        cache = PolicyCache(capacity, "freq", scorer=scores.scores)
        for rows in streams:
            assert len(np.unique(rows // chunk_rows)) > capacity
            table.record_accesses(rows)
            chunks = rows // chunk_rows
            scores.record(chunks)
            cache.access(chunks)
            s = table.stats
            assert (s.hot_hits, s.cold_misses, s.promotions) == (
                cache.hits, cache.misses, cache.insertions
            )
            assert table.hot_chunks.tolist() == sorted(cache.keys().tolist())
        assert walked and cache.rejections > 0

    @pytest.mark.parametrize("tied", [True, False])
    def test_eviction_order_with_and_without_ties(self, tied, monkeypatch):
        """Victims leave lowest score first, then smallest id, each paired
        with its evictor.  Scores that tie at the victim boundary (whole
        counts under ``ema_decay=1.0``: four chunks seen once each) take
        the id sort; distinct ones (seen 1, 2, 3 and 4 times) do not."""
        capacity = 4
        table = TieredEmbeddingTable(
            TableSpec("t", hash_size=16, dim=4, mean_lookups=1.0),
            np.random.default_rng(0),
            tiering=TieredStoreConfig(
                hot_fraction=None, hot_bytes=capacity * 4 * 8,
                chunk_rows=1, policy="freq", ema_decay=1.0,
            ),
        )
        fill = [0, 1, 2, 3] if tied else [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
        streams = [np.array(fill), np.array([4] * 5 + [5] * 6 + [0, 1, 2, 3])]

        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        scores = FreqStats(16, decay=1.0)
        cache = PolicyCache(capacity, "freq", scorer=scores.scores)
        for rows in streams:
            table.record_accesses(rows)
            tie_sorts, sorts[:] = len(sorts), []  # the table's alone
            scores.record(rows)
            cache.access(rows)
            s = table.stats
            assert (s.hot_hits, s.cold_misses, s.promotions) == (
                cache.hits, cache.misses, cache.insertions
            )
            assert table.hot_chunks.tolist() == sorted(cache.keys().tolist())
        assert cache.insertions == 6 and table.hot_chunks.tolist() == [2, 3, 4, 5]
        assert tie_sorts == int(tied)


# ---------------------------------------------------------------------------
# Trainer integration: tier metrics + spans
# ---------------------------------------------------------------------------


class TestTrainerTierMetrics:
    def test_counters_and_gauges_published(self):
        config = _small_config()
        model = DLRM(config, rng=0, tiering=TieredStoreConfig(hot_fraction=0.1))
        metrics = MetricsRegistry()
        _train(model, config, steps=3, metrics=metrics)
        hits = sum(
            c.value for c in metrics.get("tier_hot_hits").children().values()
        )
        misses = sum(
            c.value for c in metrics.get("tier_cold_misses").children().values()
        )
        total = sum(t.stats.accesses for t in model.embedding_tables())
        assert hits + misses == total > 0
        assert len(metrics.get("tier_hit_rate").children()) == len(config.tables)

    def test_flat_model_publishes_nothing(self):
        config = _small_config()
        model = DLRM(config, rng=0)
        metrics = MetricsRegistry()
        _train(model, config, steps=2, metrics=metrics)
        with pytest.raises(KeyError):
            metrics.get("tier_hot_hits")

    def test_tier_spans_emitted(self):
        from repro.obs import Tracer

        config = _small_config()
        model = DLRM(config, rng=0, tiering=TieredStoreConfig(hot_fraction=0.1))
        tracer = Tracer()
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
            tracer=tracer,
        )
        gen = SyntheticDataGenerator(config, rng=0)
        trainer.train_step(gen.batch(16))
        tier_spans = [s for s in tracer.spans if s.name == "tier"]
        assert len(tier_spans) == len(config.tables)


# ---------------------------------------------------------------------------
# measured vs analytic cross-validation (small; the full sweep is the CLI)
# ---------------------------------------------------------------------------


def steady_state_hit_rate(policy, num_rows, capacity, skew=1.05,
                          accesses=120_000, seed=0):
    """Hit rate of a :class:`PolicyCache` over the second half of a
    discrete-Zipf stream: the first half warms it, as the analytic
    formulas assume a warmed cache."""
    stream = sample_discrete_zipf(np.random.default_rng(seed), accesses,
                                  num_rows, skew=skew)
    cache = PolicyCache(min(capacity, num_rows), policy)
    cut = len(stream) // 2
    cache.access(stream[:cut])
    return cache.access(stream[cut:]) / (len(stream) - cut)


class TestMeasuredVsAnalytic:
    def test_lru_matches_che_approximation(self):
        """Measured steady-state LRU hit rate vs the Che characteristic-time
        prediction, across capacity ratios."""
        for n, c in ((2000, 100), (2000, 400), (20_000, 2000)):
            measured = steady_state_hit_rate("lru", n, c, seed=1)
            assert measured == pytest.approx(lru_hit_rate(n, c, 1.05), abs=0.02), (n, c)

    def test_lfu_matches_topk_mass(self):
        """Measured steady-state LFU hit rate vs the top-k Zipf mass.  LFU
        converges to caching exactly the most popular rows, but finite
        windows keep it slightly below the ideal: top-k is an upper
        bound."""
        for n, c in ((2000, 200), (20_000, 2000)):
            measured = steady_state_hit_rate("lfu", n, c, seed=1)
            predicted = zipf_hit_rate(n, c, 1.05)
            assert measured <= predicted + 0.01, (n, c)
            assert measured == pytest.approx(predicted, abs=0.04), (n, c)

    def test_lfu_beats_lru_on_skewed_traffic(self):
        lru = steady_state_hit_rate("lru", 5000, 500, accesses=100_000, seed=2)
        lfu = steady_state_hit_rate("lfu", 5000, 500, accesses=100_000, seed=2)
        assert lfu > lru

    def test_sweep_point_within_gate(self):
        from repro.experiments.ext_tiering import run_sweep

        points = run_sweep(
            hot_fractions=(0.05,), skews=(1.05,), policies=("freq",),
            num_rows=2048, chunk_rows=4, warmup=6000, measure=12000,
        )
        assert len(points) == 1
        p = points[0]
        assert 0.0 < p.measured_hit_rate < 1.0
        assert p.rel_err < 0.25

    def test_train_experiment_bit_identity(self):
        from repro.experiments.ext_tiering import run_train

        r = run_train(hot_fraction=0.05, policy="freq", steps=3, batch=32,
                      dtype="float32")
        assert r.bit_identical
        assert r.tier_stats["hot_hits"] + r.tier_stats["cold_misses"] > 0

    def test_chunk_popularity_is_pmf(self):
        from repro.experiments.ext_tiering import chunk_popularity

        p = chunk_popularity(num_rows=1000, chunk_rows=8, skew=1.05)
        assert len(p) == 125
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()
        # Sanity link to the analytic layer: a pmf-general hit rate over
        # these chunks is a valid probability.
        h = policy_hit_rate_pmf("lru", p, 12)
        assert 0.0 < h < 1.0


# ---------------------------------------------------------------------------
# CLI smoke
# ---------------------------------------------------------------------------


class TestTierCLI:
    def test_tier_train_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["tier", "train", "--steps", "2", "--batch", "16", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["bit_identical"] for r in out] == [True, True]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--measure", "0", "--warmup", "0"],
        ["sweep", "--measure", "-5"],
        ["sweep", "--warmup", "-1"],
        ["train", "--steps", "0"],
    ])
    def test_tier_gates_refuse_zero_evidence(self, argv, capsys):
        from repro.cli import main

        assert main(["tier", *argv, "--json"]) == 2
        assert "must be" in capsys.readouterr().err

    def test_tier_sweep_json(self, capsys):
        import json

        from repro.cli import main

        rc = main([
            "tier", "sweep", "--hot-fractions", "0.05", "--skews", "1.05",
            "--policies", "freq", "--rows", "2048", "--warmup", "4000",
            "--measure", "8000", "--json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_err"] == 0.25
        assert all(p["rel_err"] < 0.25 for p in out["points"])
