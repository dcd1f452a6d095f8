"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BCEWithLogitsLoss,
    MLPSpec,
    RaggedIndices,
    SparseGrad,
    hash_raw_ids,
    sigmoid,
)
from repro.analysis import gini_coefficient, summarize
from repro.hardware import MemoryPool, OpCost, allreduce_time, alltoall_time, LinkSpec
from repro.hardware.specs import V100_32GB
from repro.hardware.device import op_time

common = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)


# -- ragged indices invariants -------------------------------------------------

ragged_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=999), max_size=12),
    min_size=1,
    max_size=12,
)


@common
@given(ragged_lists)
def test_ragged_roundtrip_preserves_samples(samples):
    r = RaggedIndices.from_lists([np.array(s, dtype=np.int64) for s in samples])
    assert r.batch_size == len(samples)
    for i, s in enumerate(samples):
        np.testing.assert_array_equal(r.sample(i), s)
    assert r.total_lookups == sum(len(s) for s in samples)


@common
@given(ragged_lists, st.integers(min_value=1, max_value=8))
def test_ragged_truncate_invariants(samples, cap):
    r = RaggedIndices.from_lists([np.array(s, dtype=np.int64) for s in samples])
    t = r.truncate(cap)
    assert t.batch_size == r.batch_size
    assert np.all(t.lengths() <= cap)
    assert np.all(t.lengths() == np.minimum(r.lengths(), cap))
    for i in range(t.batch_size):
        np.testing.assert_array_equal(t.sample(i), r.sample(i)[:cap])


# -- hashing ------------------------------------------------------------------


@common
@given(
    st.lists(st.integers(min_value=0, max_value=2**50), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=10_000),
)
def test_hash_range_and_determinism(ids, m):
    arr = np.array(ids, dtype=np.uint64)
    h1 = hash_raw_ids(arr, m)
    h2 = hash_raw_ids(arr, m)
    assert np.all((h1 >= 0) & (h1 < m))
    np.testing.assert_array_equal(h1, h2)


# -- sparse gradient coalescing -------------------------------------------------


@common
@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=50),
)
def test_sparse_grad_coalesce_preserves_sum(rows):
    idx = np.array(rows, dtype=np.int64)
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(len(idx), 3))
    g = SparseGrad.coalesce(idx, grads)
    assert len(np.unique(g.rows)) == len(g.rows)  # unique
    np.testing.assert_allclose(g.values.sum(axis=0), grads.sum(axis=0), atol=1e-9)
    # per-row sums match
    for row in np.unique(idx):
        np.testing.assert_allclose(
            g.values[g.rows == row].sum(axis=0),
            grads[idx == row].sum(axis=0),
            atol=1e-9,
        )


# -- loss/sigmoid --------------------------------------------------------------


@common
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=64))
def test_bce_non_negative_and_finite(logit_list):
    logits = np.array(logit_list)
    labels = (np.arange(len(logits)) % 2).astype(float)
    loss = BCEWithLogitsLoss().forward(logits, labels)
    assert np.isfinite(loss) and loss >= 0.0


@common
@given(st.floats(min_value=-700, max_value=700))
def test_sigmoid_bounded_monotone(x):
    v = sigmoid(np.array([x, x + 1.0]))
    assert 0.0 <= v[0] <= 1.0
    assert v[1] >= v[0]


# -- MLP spec ------------------------------------------------------------------


@common
@given(
    st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=64),
)
def test_mlp_param_count_positive_and_exact(widths, in_features):
    spec = MLPSpec(tuple(widths))
    expected = 0
    prev = in_features
    for w in widths:
        expected += prev * w + w
        prev = w
    assert spec.num_parameters(in_features) == expected


@common
@given(st.integers(min_value=1, max_value=4096), st.integers(min_value=1, max_value=8))
def test_mlp_notation_roundtrip(width, depth):
    spec = MLPSpec.from_notation(f"{width}^{depth}")
    assert MLPSpec.from_notation(spec.notation()).layer_sizes == spec.layer_sizes


# -- memory pool accounting -----------------------------------------------------


@common
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
def test_memory_pool_conservation(sizes):
    pool = MemoryPool("p", capacity=float("inf"))
    for i, s in enumerate(sizes):
        pool.allocate(f"tag{i}", s)
    assert pool.used == pytest.approx(sum(sizes))
    for i in range(len(sizes)):
        pool.free(f"tag{i}")
    assert pool.used == 0.0


# -- roofline monotonicity -------------------------------------------------------


@common
@given(
    st.floats(min_value=0, max_value=1e12),
    st.floats(min_value=0, max_value=1e10),
    st.floats(min_value=1.0, max_value=1e12),
)
def test_op_time_monotone_in_flops(flops, extra, byts):
    base = op_time(V100_32GB, OpCost(flops=flops, bytes=byts, kernels=1))
    more = op_time(V100_32GB, OpCost(flops=flops + extra, bytes=byts, kernels=1))
    assert more >= base


# -- collective cost sanity -------------------------------------------------------

_LINK = LinkSpec("l", bandwidth=1e9, latency_s=1e-6)


@common
@given(st.floats(min_value=0, max_value=1e9), st.integers(min_value=1, max_value=64))
def test_collectives_non_negative(size, ranks):
    assert allreduce_time(_LINK, size, ranks) >= 0
    assert alltoall_time(_LINK, size, ranks) >= 0


@common
@given(st.floats(min_value=1e3, max_value=1e9), st.integers(min_value=2, max_value=32))
def test_allreduce_exceeds_alltoall_per_rank(size, ranks):
    # allreduce moves ~2x the data of a same-size per-rank alltoall
    assert allreduce_time(_LINK, size, ranks) > alltoall_time(_LINK, size, ranks) * 0.99


# -- analysis invariants ----------------------------------------------------------


@common
@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=2, max_size=200))
def test_gini_in_unit_interval(values):
    g = gini_coefficient(np.array(values))
    assert -1e-9 <= g < 1.0


@common
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300))
def test_summary_bounds(values):
    s = summarize(np.array(values))
    tol = 1e-9 * max(1.0, abs(s.maximum), abs(s.minimum))
    assert s.minimum - tol <= s.mean <= s.maximum + tol
    assert s.minimum - tol <= s.median <= s.maximum + tol


# -- quantization roundtrip --------------------------------------------------


@common
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=16),
    st.sampled_from([2, 4, 8]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quantization_roundtrip_error_bounded(rows, dim, bits, seed):
    from repro.core import dequantize_rows, quantize_rows

    rng = np.random.default_rng(seed)
    w = rng.normal(size=(rows, dim)) * 10 ** rng.uniform(-3, 3)
    codes, scales = quantize_rows(w, bits)
    recon = dequantize_rows(codes, scales)
    # error bounded by half a quantization step per row
    assert np.all(np.abs(recon - w) <= 0.5 * scales[:, None] + 1e-12)


# -- Zipf hit-rate properties ---------------------------------------------------


@common
@given(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=0, max_value=10**7),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_zipf_hit_rate_bounded(num_rows, cached, skew):
    from repro.placement import zipf_hit_rate

    rate = zipf_hit_rate(num_rows, cached, skew)
    assert 0.0 <= rate <= 1.0
    if cached >= num_rows:
        assert rate == 1.0


@common
@given(
    st.integers(min_value=100, max_value=10**6),
    st.integers(min_value=1, max_value=50),
)
def test_zipf_hit_rate_monotone_in_cache(num_rows, steps):
    from repro.placement import zipf_hit_rate

    sizes = np.linspace(1, num_rows, steps).astype(int)
    rates = [zipf_hit_rate(num_rows, int(k)) for k in sizes]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


# -- placement plan invariants ------------------------------------------------


@common
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1_000, max_value=5_000_000),
    st.floats(min_value=0.5, max_value=50.0),
    st.sampled_from(["table_wise", "row_wise"]),
)
def test_gpu_plan_complete_and_within_capacity(num_tables, hash_size, lookups, partitioning):
    from repro.core import InteractionType, MLPSpec, ModelConfig, uniform_tables
    from repro.hardware import BIG_BASIN, CapacityError
    from repro.hardware.memory import usable_capacity
    from repro.placement import LocationKind, PlannerConfig, plan_gpu_memory

    model = ModelConfig(
        "prop", 8,
        uniform_tables(num_tables, hash_size, dim=16, mean_lookups=lookups),
        MLPSpec((16,)), MLPSpec((16,)), InteractionType.CONCAT,
    )
    cfg = PlannerConfig(partitioning=partitioning)
    try:
        plan = plan_gpu_memory(model, BIG_BASIN, cfg=cfg)
    except CapacityError:
        return  # legitimately infeasible draws are fine
    plan.validate_complete({t.name for t in model.tables})
    # per-GPU byte totals never exceed usable capacity
    per_gpu = {}
    per_gpu_cap = usable_capacity(BIG_BASIN.gpu.mem_capacity, cfg.headroom)
    for s in plan.shards:
        if s.location.kind is LocationKind.GPU:
            if s.replicated:
                for g in range(BIG_BASIN.num_gpus):
                    per_gpu[g] = per_gpu.get(g, 0.0) + s.bytes / BIG_BASIN.num_gpus
            else:
                per_gpu[s.location.index] = per_gpu.get(s.location.index, 0.0) + s.bytes
    for used in per_gpu.values():
        assert used <= per_gpu_cap * (1 + 1e-9)


@common
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1_000, max_value=3_000_000),
    st.integers(min_value=1, max_value=6),
)
def test_remote_plan_complete_and_within_capacity(num_tables, hash_size, num_ps):
    from repro.core import InteractionType, MLPSpec, ModelConfig, uniform_tables
    from repro.hardware import DUAL_SOCKET_CPU, CapacityError
    from repro.placement import plan_remote_cpu

    model = ModelConfig(
        "prop", 8,
        uniform_tables(num_tables, hash_size, dim=16, mean_lookups=2.0),
        MLPSpec((16,)), MLPSpec((16,)), InteractionType.CONCAT,
    )
    try:
        plan = plan_remote_cpu(model, DUAL_SOCKET_CPU, num_ps=num_ps)
    except CapacityError:
        return
    plan.validate_complete({t.name for t in model.tables})
    assert plan.remote_ps_used() <= num_ps


# -- throughput model sanity over random configs ---------------------------------


@common
@given(
    st.integers(min_value=8, max_value=1024),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=32, max_value=4096),
)
def test_throughput_positive_and_finite(num_dense, num_sparse, batch):
    from repro.configs import make_test_model
    from repro.hardware import BIG_BASIN
    from repro.perf import cpu_cluster_throughput, gpu_server_throughput
    from repro.placement import plan_gpu_memory

    model = make_test_model(num_dense, num_sparse)
    cpu = cpu_cluster_throughput(model, min(batch, 800), 1, 1, 1)
    assert np.isfinite(cpu.throughput) and cpu.throughput > 0
    plan = plan_gpu_memory(model, BIG_BASIN)
    gpu = gpu_server_throughput(model, batch, BIG_BASIN, plan)
    assert np.isfinite(gpu.throughput) and gpu.throughput > 0
    assert gpu.iteration_time_s > 0


# -- observability invariants --------------------------------------------------
#
# The registry's merge must be associative and commutative (this is what
# makes fleet aggregation order-independent), histogram quantiles must stay
# inside the observed range, tracer spans must nest strictly, and the
# Chrome export must survive a JSON round trip.

from repro.obs import MetricsRegistry, Tracer, merge_all  # noqa: E402

# Integer-valued floats keep counter/histogram sums exact in double
# precision, so associativity can be asserted bit-for-bit (float addition
# itself is only approximately associative).
_metric_events = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "g1", "h1", "h2"]),
        st.integers(min_value=0, max_value=10**6).map(float),
    ),
    max_size=30,
)


def _registry_from(events):
    reg = MetricsRegistry()
    for name, value in events:
        if name.startswith("c"):
            reg.counter(name).inc(value)
        elif name.startswith("g"):
            reg.gauge(name).set(value)
        else:
            reg.histogram(name).observe(value)
    return reg


@common
@given(_metric_events, _metric_events, _metric_events)
def test_registry_merge_associative(ev_a, ev_b, ev_c):
    a1, b1, c1 = _registry_from(ev_a), _registry_from(ev_b), _registry_from(ev_c)
    a2, b2, c2 = _registry_from(ev_a), _registry_from(ev_b), _registry_from(ev_c)
    left = a1.merge(b1).merge(c1)
    right = a2.merge(b2.merge(c2))
    assert left.to_dict() == right.to_dict()


@common
@given(_metric_events, _metric_events)
def test_registry_merge_commutative(ev_a, ev_b):
    a1, b1 = _registry_from(ev_a), _registry_from(ev_b)
    a2, b2 = _registry_from(ev_a), _registry_from(ev_b)
    assert a1.merge(b1).to_dict() == b2.merge(a2).to_dict()


@common
@given(st.lists(_metric_events, min_size=1, max_size=5))
def test_registry_merge_all_equals_sequential(event_groups):
    regs_a = [_registry_from(ev) for ev in event_groups]
    regs_b = [_registry_from(ev) for ev in event_groups]
    folded = merge_all(regs_a)
    acc = regs_b[0]
    for reg in regs_b[1:]:
        acc = acc.merge(reg)
    assert folded.to_dict() == acc.to_dict()


@common
@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_quantiles_bounded_by_min_max(values, q):
    from repro.obs import Histogram

    h = Histogram("x")
    for v in values:
        h.observe(v)
    est = h.quantile(q)
    assert min(values) <= est <= max(values)
    assert h.min == min(values) and h.max == max(values)
    assert h.count == len(values)


_span_trees = st.recursive(
    st.tuples(st.sampled_from(["compute", "memory", "comm"]), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(["compute", "memory", "comm", "iteration"]),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)


def _emit(tracer, clock, node):
    category, children = node
    span = tracer.begin(f"s{len(tracer.spans)}", category, t0=clock[0])
    for child in children:
        clock[0] += 1.0
        _emit(tracer, clock, child)
    clock[0] += 1.0
    tracer.end(span, t1=clock[0])


@common
@given(st.lists(_span_trees, min_size=1, max_size=4))
def test_spans_strictly_nested(trees):
    tracer = Tracer()
    clock = [0.0]
    for tree in trees:
        _emit(tracer, clock, tree)
        clock[0] += 1.0
    spans = tracer.finished()
    assert len(spans) == len(tracer.spans)  # everything closed
    for s in spans:
        assert s.t1 is not None and s.t1 >= s.t0
        if s.parent is not None:
            p = tracer.spans[s.parent]
            # child interval contained in parent interval
            assert p.t0 <= s.t0 and s.t1 <= p.t1


@common
@given(st.lists(_span_trees, min_size=1, max_size=3))
def test_chrome_export_roundtrips_json(trees):
    import json

    tracer = Tracer()
    clock = [0.0]
    for tree in trees:
        _emit(tracer, clock, tree)
    payload = tracer.to_chrome()
    restored = json.loads(json.dumps(payload))
    assert restored == payload
    events = restored["traceEvents"]
    assert len(events) == len(tracer.finished())
    for e in events:
        assert e["ph"] == "X"
        assert e["dur"] >= 0
        assert isinstance(e["args"], dict)
