"""Op-level backend conformance: every protocol op vs the numpy reference.

These generalize the historical naive-vs-fused kernel equivalence tests
(formerly in ``tests/test_dense_kernels.py``) over *every* registered
backend: hypothesis draws adversarial shapes (batch 1, single features,
odd widths, saturating logits, exact-zero pre-activations) and each op
is asserted against the ``"numpy"`` reference — exactly for
bit-identical backends, within the declared tolerance otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Workspace, dense_kernels, get_backend
from repro.core.backends import reference_backend as reference

from backend_cases import (
    BACKEND_SPECS,
    DTYPES,
    assert_backend_matches,
    assert_scalar_matches,
    make_workspace,
    rand,
)

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def mat_shapes(draw):
    """(batch, in_features, out_features) with degenerate sizes included."""
    return (
        draw(st.integers(min_value=1, max_value=17)),
        draw(st.integers(min_value=1, max_value=9)),
        draw(st.integers(min_value=1, max_value=9)),
    )


@st.composite
def dot_shapes(draw):
    """(batch, n_vec, dim) for pairwise-dot interaction tests."""
    return (
        draw(st.integers(min_value=1, max_value=9)),
        draw(st.integers(min_value=2, max_value=8)),
        draw(st.integers(min_value=1, max_value=6)),
    )


seeds = st.integers(min_value=0, max_value=2**31 - 1)
dtypes = st.sampled_from(DTYPES)
backend_specs = pytest.mark.parametrize("spec", BACKEND_SPECS)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


@backend_specs
@settings(max_examples=25, deadline=None)
@given(shape=mat_shapes(), seed=seeds, dtype=dtypes)
def test_linear_forward_conforms(spec, shape, seed, dtype):
    be = get_backend(spec)
    batch, fin, fout = shape
    x = rand(seed, (batch, fin), dtype)
    w = rand(seed + 1, (fout, fin), dtype)
    b = rand(seed + 2, (fout,), dtype)
    ref = reference().linear_forward(x, w, b, None, "lin")
    out = be.linear_forward(x, w, b, make_workspace(be), "lin")
    assert_backend_matches(be, out, ref, "linear_forward")


@backend_specs
@settings(max_examples=25, deadline=None)
@given(shape=mat_shapes(), seed=seeds, dtype=dtypes)
def test_linear_backward_conforms(spec, shape, seed, dtype):
    be = get_backend(spec)
    batch, fin, fout = shape
    x = rand(seed, (batch, fin), dtype)
    w = rand(seed + 1, (fout, fin), dtype)
    g = rand(seed + 2, (batch, fout), dtype)
    wg0 = rand(seed + 3, (fout, fin), dtype)  # pre-existing accumulation
    bg0 = rand(seed + 4, (fout,), dtype)
    wg_ref, bg_ref = wg0.copy(), bg0.copy()
    dx_ref = reference().linear_backward(g, x, w, wg_ref, bg_ref, None, "lin")
    wg, bg = wg0.copy(), bg0.copy()
    dx = be.linear_backward(g, x, w, wg, bg, make_workspace(be), "lin")
    assert_backend_matches(be, dx, dx_ref, "linear_backward dx")
    assert_backend_matches(be, wg, wg_ref, "linear_backward dW accumulation")
    assert_backend_matches(be, bg, bg_ref, "linear_backward db accumulation")


@backend_specs
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_backward_without_dx_conforms(spec, dtype):
    """``dx=False`` (a layer whose input is data) drops the ``dx`` GEMM and
    nothing else: ``dW``/``db`` accumulate to the bits of the with-``dx``
    call, the return is ``None`` and the arena holds no ``gin`` buffer."""
    be = get_backend(spec)
    x = rand(0, (7, 5), dtype)
    w = rand(1, (3, 5), dtype)
    g = rand(2, (7, 3), dtype)
    wg_with, bg_with = rand(3, (3, 5), dtype), rand(4, (3,), dtype)
    wg, bg = wg_with.copy(), bg_with.copy()
    assert be.linear_backward(g, x, w, wg_with, bg_with, make_workspace(be), "lin") is not None
    ws = make_workspace(be)
    assert be.linear_backward(g, x, w, wg, bg, ws, "lin", dx=False) is None
    np.testing.assert_array_equal(wg, wg_with)
    np.testing.assert_array_equal(bg, bg_with)
    if ws is not None:
        assert {key for key, *_ in ws._buffers} == {("lin", "wg"), ("lin", "bg")}


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------


@backend_specs
@settings(max_examples=25, deadline=None)
@given(shape=mat_shapes(), seed=seeds, dtype=dtypes)
def test_relu_conforms_including_zero_signs(spec, shape, seed, dtype):
    be = get_backend(spec)
    batch, fin, _ = shape
    x = rand(seed, (batch, fin), dtype)
    x.reshape(-1)[0] = 0.0  # force an exact-zero pre-activation
    g = rand(seed + 1, (batch, fin), dtype)
    y_ref, ctx_ref = reference().relu_forward(x.copy(), None, "r")
    ws = make_workspace(be)
    y, ctx = be.relu_forward(x.copy(), ws, "r")
    assert_backend_matches(be, y, y_ref, "relu_forward")
    gx_ref = reference().relu_backward(g.copy(), ctx_ref, None, "r")
    gx = be.relu_backward(g.copy(), ctx, ws, "r")
    assert_backend_matches(be, gx, gx_ref, "relu_backward")
    if be.bit_identical:
        # the mask-free path must not leak -0.0 where the reference has +0.0
        assert np.array_equal(np.signbit(y), np.signbit(y_ref))
        assert np.array_equal(np.signbit(gx), np.signbit(gx_ref))


@backend_specs
def test_relu_inference_mode_has_no_ctx(spec):
    be = get_backend(spec)
    x = rand(0, (5, 3), np.float64)
    y, ctx = be.relu_forward(x, make_workspace(be), "r", training=False)
    assert ctx is None
    assert_backend_matches(be, y, np.maximum(x, 0.0), "relu inference")


# ---------------------------------------------------------------------------
# bce loss
# ---------------------------------------------------------------------------


@backend_specs
@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=33),
    seed=seeds,
    scale=st.floats(min_value=0.1, max_value=50.0),
)
def test_bce_conforms(spec, batch, seed, scale):
    be = get_backend(spec)
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal(batch) * scale  # include saturating logits
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    loss_ref, ctx_ref = reference().bce_forward(logits, labels, None)
    ws = make_workspace(be)
    loss, ctx = be.bce_forward(logits, labels, ws)
    assert_scalar_matches(be, loss, loss_ref, "bce loss")
    grad_ref = reference().bce_backward(logits, labels, ctx_ref, None)
    grad = be.bce_backward(logits, labels, ctx, ws)
    assert_backend_matches(be, grad, grad_ref, "bce grad")


# ---------------------------------------------------------------------------
# dot interaction
# ---------------------------------------------------------------------------


def _dot_case(shape, seed, dtype):
    batch, n_vec, dim = shape
    dense = rand(seed, (batch, dim), dtype)
    embs = [rand(seed + 1 + i, (batch, dim), dtype) for i in range(n_vec - 1)]
    tril = np.tril_indices(n_vec, k=-1)
    grad_out = rand(seed + 50, (batch, dim + len(tril[0])), dtype)
    out_map = dense_kernels.dot_out_map(dim, n_vec, tril)
    pair_map = dense_kernels.symmetric_pair_map(n_vec, tril)
    return dense, embs, tril, grad_out, out_map, pair_map


def _emb_layouts(embs):
    """The three things a caller may hand over as ``embs``: separate
    arrays, the feature-major array, and a list of that array's slabs."""
    whole = np.stack(embs)
    return {"list": embs, "array": whole, "slabs": list(whole)}


@backend_specs
@settings(max_examples=25, deadline=None)
@given(shape=dot_shapes(), seed=seeds, dtype=dtypes)
@example(shape=(3, 61, 16), seed=7, dtype=np.float32)  # perfbench train_dot
@example(shape=(5, 9, 32), seed=8, dtype=np.float32)  # perfbench hybrid_w2
@example(shape=(4, 9, 32), seed=9, dtype=np.float64)
def test_dot_interaction_conforms(spec, shape, seed, dtype):
    be = get_backend(spec)
    dim = shape[2]
    dense, embs, tril, grad_out, out_map, pair_map = _dot_case(shape, seed, dtype)
    out_ref, ctx_ref = reference().dot_forward(dense, embs, tril, out_map, None, "d")
    gd_ref, ge_ref = reference().dot_backward(
        ctx_ref, grad_out, dim, tril, pair_map, None, "d"
    )
    for layout, given_embs in _emb_layouts(embs).items():
        ws = make_workspace(be)
        out, ctx = be.dot_forward(dense, given_embs, tril, out_map, ws, "d")
        assert_backend_matches(be, out, out_ref, f"dot_forward ({layout})")
        gd, ge = be.dot_backward(ctx, grad_out, dim, tril, pair_map, ws, "d")
        assert_backend_matches(be, gd, gd_ref, f"dot_backward grad_dense ({layout})")
        assert len(ge) == len(ge_ref)
        for i, (a, r) in enumerate(zip(ge, ge_ref)):
            assert_backend_matches(be, a, r, f"dot_backward grad_emb[{i}] ({layout})")
            # an arena backend hands every table a contiguous gradient
            assert not be.uses_workspace or a.flags.c_contiguous


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "shape", [(7, 5, 3), (1, 2, 1), (6, 61, 16), (11, 9, 32), (9, 8, 6)]
)
def test_dot_kernels_do_not_depend_on_the_block(shape, dtype):
    """``dense_kernels.dot_forward`` / ``dot_backward`` driven directly
    with block buffers of 1, 2, batch - 1, batch and batch + 3 rows
    (block of one, ragged tail, single block) equal the reference bit for
    bit — the fused backend's 512 KiB budget never splits shapes this
    small."""
    assert get_backend("fused").bit_identical
    batch, n_vec, dim = shape
    dense, embs, tril, grad_out, out_map, pair_map = _dot_case(shape, 3, dtype)
    pooled = np.stack(embs)
    num_pairs = len(tril[0])
    out_ref, ctx_ref = reference().dot_forward(dense, embs, tril, out_map, None, "d")
    gd_ref, ge_ref = reference().dot_backward(
        ctx_ref, grad_out, dim, tril, pair_map, None, "d"
    )
    for block in sorted({1, 2, max(1, batch - 1), batch, batch + 3}):
        def buf(*width):
            return np.full((block, *width), np.nan, dtype=dtype)

        out = dense_kernels.dot_forward(
            dense, pooled, out_map, buf(n_vec, dim), buf(dim, n_vec), buf(dim + n_vec * n_vec),
            np.full((batch, dim + num_pairs), np.nan, dtype=dtype),
        )
        np.testing.assert_array_equal(out, out_ref, err_msg=f"block {block}")
        gd, gp = dense_kernels.dot_backward(
            dense, pooled, pair_map, grad_out,
            buf(n_vec, dim), buf(num_pairs + 1), buf(n_vec, n_vec), buf(n_vec, dim),
            np.full((batch, dim), np.nan, dtype=dtype), np.full_like(pooled, np.nan),
        )
        np.testing.assert_array_equal(gd, gd_ref, err_msg=f"block {block}")
        np.testing.assert_array_equal(gp, np.stack(ge_ref), err_msg=f"block {block}")


def test_dot_block_rows_follow_the_byte_budget():
    budget = dense_kernels._DOT_BLOCK_BYTES
    assert dense_kernels.dot_block_rows(61, np.float32) == budget // (61 * 61 * 4)
    assert dense_kernels.dot_block_rows(9, np.float64) == budget // (9 * 9 * 8)
    assert dense_kernels.dot_block_rows(4096, np.float64) == 1  # never zero


@backend_specs
@settings(max_examples=15, deadline=None)
@given(shape=dot_shapes(), seed=seeds, dtype=dtypes)
@example(shape=(3, 13, 64), seed=7, dtype=np.float32)  # perfbench train_emb
def test_concat_forward_conforms(spec, shape, seed, dtype):
    """``concat_forward`` and the gradient split that undoes it."""
    be = get_backend(spec)
    batch, n_vec, dim = shape
    width = dim + 2  # CONCAT does not tie the dense width to the embedding dim
    dense = rand(seed, (batch, width), dtype)
    embs = [rand(seed + 1 + i, (batch, dim), dtype) for i in range(n_vec - 1)]
    grad_out = rand(seed + 50, (batch, width + (n_vec - 1) * dim), dtype)
    ref = reference().concat_forward(dense, embs, dim, None, "c")
    gd_ref, ge_ref = reference().concat_backward(
        grad_out, width, n_vec - 1, dim, None, "c"
    )
    for layout, given_embs in _emb_layouts(embs).items():
        ws = make_workspace(be)
        out = be.concat_forward(dense, given_embs, dim, ws, "c")
        assert_backend_matches(be, out, ref, f"concat_forward ({layout})")
        gd, ge = be.concat_backward(grad_out, width, n_vec - 1, dim, ws, "c")
        assert_backend_matches(be, gd, gd_ref, f"concat_backward grad_dense ({layout})")
        assert len(ge) == len(ge_ref)
        for i, (a, r) in enumerate(zip(ge, ge_ref)):
            assert_backend_matches(be, a, r, f"concat_backward grad_emb[{i}] ({layout})")
            assert not be.uses_workspace or a.flags.c_contiguous


def test_feature_major_recognises_its_own_slabs():
    """A list of one array's slabs, in order, is that array (no copy);
    anything else is copied into the arena, once."""
    ws = Workspace()
    whole = rand(0, (4, 5, 3), np.float32)
    assert dense_kernels.feature_major(whole, ws, "k") is whole
    assert dense_kernels.feature_major(list(whole), ws, "k") is whole
    assert ws.stats()["buffers"] == 0
    rows = whole.reshape(-1, 3)
    for embs in (
        list(whole)[::-1],                                 # out of order
        [whole[0], whole[0], whole[2], whole[3]],          # one twice
        [rows[0:5], rows[4:9], rows[10:15], rows[15:20]],  # one shifted a row
        list(whole[:, :, :2]),                             # not whole slabs
        list(whole)[:3],                                   # not all of them
        [s.copy() for s in whole],                         # separate arrays
    ):
        got = dense_kernels.feature_major(embs, ws, "k")
        assert got is not whole and ws.owns(got)
        np.testing.assert_array_equal(got, np.stack(embs))


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------


@backend_specs
@settings(max_examples=25, deadline=None)
@given(shape=mat_shapes(), seed=seeds, dtype=dtypes)
def test_adagrad_dense_step_conforms(spec, shape, seed, dtype):
    be = get_backend(spec)
    rows, cols, _ = shape
    value = rand(seed, (rows, cols), dtype)
    grad = rand(seed + 1, (rows, cols), dtype)
    state = np.abs(rand(seed + 2, (rows, cols), dtype))
    v_ref, s_ref = value.copy(), state.copy()
    reference().adagrad_dense_step(v_ref, grad, s_ref, 0.05, 1e-10, None)
    be.adagrad_dense_step(value, grad, state, 0.05, 1e-10, make_workspace(be))
    assert_backend_matches(be, value, v_ref, "adagrad value")
    assert_backend_matches(be, state, s_ref, "adagrad state")


@backend_specs
@settings(max_examples=25, deadline=None)
@given(
    shape=mat_shapes(),
    seed=seeds,
    dtype=dtypes,
    momentum=st.sampled_from([0.0, 0.9]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
)
def test_sgd_dense_step_conforms(spec, shape, seed, dtype, momentum, weight_decay):
    be = get_backend(spec)
    rows, cols, _ = shape
    value = rand(seed, (rows, cols), dtype)
    grad = rand(seed + 1, (rows, cols), dtype)
    vel = np.zeros_like(value) if momentum else None
    v_ref = value.copy()
    vel_ref = vel.copy() if vel is not None else None
    reference().sgd_dense_step(
        v_ref, grad, 0.1, None,
        weight_decay=weight_decay, momentum=momentum, velocity=vel_ref,
    )
    be.sgd_dense_step(
        value, grad, 0.1, make_workspace(be),
        weight_decay=weight_decay, momentum=momentum, velocity=vel,
    )
    assert_backend_matches(be, value, v_ref, "sgd value")
    if vel is not None:
        assert_backend_matches(be, vel, vel_ref, "sgd velocity")


#: Parameter sizes on both sides of the dense steps' block boundary.
_BLOCK = dense_kernels.DENSE_STEP_BLOCK
BLOCK_SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


@backend_specs
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_adagrad_dense_step_conforms_across_blocks(spec, size, dtype):
    be = get_backend(spec)
    value, grad = rand(0, (size,), dtype), rand(1, (size,), dtype)
    state = np.abs(rand(2, (size,), dtype))
    v_ref, s_ref = value.copy(), state.copy()
    ws = make_workspace(be)
    for _ in range(2):  # the second step reads the first one's state
        reference().adagrad_dense_step(v_ref, grad, s_ref, 0.05, 1e-10, None)
        be.adagrad_dense_step(value, grad, state, 0.05, 1e-10, ws)
    assert_backend_matches(be, value, v_ref, "adagrad value")
    assert_backend_matches(be, state, s_ref, "adagrad state")


@backend_specs
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("momentum, weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-3), (0.9, 1e-3)])
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_sgd_dense_step_conforms_across_blocks(spec, size, dtype, momentum, weight_decay):
    be = get_backend(spec)
    value, grad = rand(0, (size,), dtype), rand(1, (size,), dtype)
    vel = rand(2, (size,), dtype) if momentum else None
    v_ref = value.copy()
    vel_ref = vel.copy() if momentum else None
    ws = make_workspace(be)
    for _ in range(2):
        reference().sgd_dense_step(
            v_ref, grad, 0.1, None,
            weight_decay=weight_decay, momentum=momentum, velocity=vel_ref,
        )
        be.sgd_dense_step(
            value, grad, 0.1, ws,
            weight_decay=weight_decay, momentum=momentum, velocity=vel,
        )
    assert_backend_matches(be, value, v_ref, "sgd value")
    if momentum:
        assert_backend_matches(be, vel, vel_ref, "sgd velocity")


@backend_specs
@settings(max_examples=25, deadline=None)
@given(
    num_rows=st.integers(min_value=1, max_value=40),
    touched=st.integers(min_value=1, max_value=12),
    dim=st.integers(min_value=1, max_value=6),
    seed=seeds,
    dtype=dtypes,
)
def test_adagrad_sparse_step_conforms(spec, num_rows, touched, dim, seed, dtype):
    """The single-gather/single-scatter sparse Adagrad must match the
    historical three-pass update on coalesced (duplicate-free sorted)
    rows — the form ``SparseGrad`` guarantees."""
    be = get_backend(spec)
    touched = min(touched, num_rows)
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((num_rows, dim)).astype(dtype)
    state = np.abs(rng.standard_normal((num_rows, dim))).astype(dtype)
    rows = np.sort(rng.choice(num_rows, size=touched, replace=False))
    values = rng.standard_normal((touched, dim)).astype(dtype)
    w_ref, s_ref = weight.copy(), state.copy()
    reference().adagrad_sparse_step(w_ref, s_ref, rows, values, 0.05, 1e-10, None)
    be.adagrad_sparse_step(weight, state, rows, values, 0.05, 1e-10, make_workspace(be))
    assert_backend_matches(be, weight, w_ref, "sparse adagrad weight")
    assert_backend_matches(be, state, s_ref, "sparse adagrad state")


@backend_specs
@settings(max_examples=15, deadline=None)
@given(
    num_rows=st.integers(min_value=1, max_value=40),
    touched=st.integers(min_value=1, max_value=12),
    dim=st.integers(min_value=1, max_value=6),
    seed=seeds,
    dtype=dtypes,
)
def test_sgd_sparse_step_conforms(spec, num_rows, touched, dim, seed, dtype):
    be = get_backend(spec)
    touched = min(touched, num_rows)
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((num_rows, dim)).astype(dtype)
    rows = np.sort(rng.choice(num_rows, size=touched, replace=False))
    values = rng.standard_normal((touched, dim)).astype(dtype)
    w_ref = weight.copy()
    reference().sgd_sparse_step(w_ref, rows, values, 0.05, None)
    be.sgd_sparse_step(weight, rows, values, 0.05, make_workspace(be))
    assert_backend_matches(be, weight, w_ref, "sparse sgd weight")


@backend_specs
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dim", [1, 16, 64])
def test_sparse_steps_conform_across_block_boundaries(spec, dim, dtype):
    """The fused sparse steps walk the rows in cache-sized blocks: row
    counts on every side of a block edge must equal the unblocked
    reference bit for bit."""
    be = get_backend(spec)
    block = dense_kernels.sparse_block_rows(np.empty((0, dim), dtype))
    ws = make_workspace(be)
    for touched in (0, 1, block - 1, block, block + 1, 3 * block + 7):
        num_rows = touched + 13
        rng = np.random.default_rng(touched)
        weight = rng.standard_normal((num_rows, dim)).astype(dtype)
        state = np.abs(rng.standard_normal((num_rows, dim))).astype(dtype)
        rows = np.sort(rng.choice(num_rows, size=touched, replace=False))
        values = rng.standard_normal((touched, dim)).astype(dtype)
        w_ref, s_ref = weight.copy(), state.copy()
        reference().adagrad_sparse_step(w_ref, s_ref, rows, values, 0.05, 1e-10, None)
        be.adagrad_sparse_step(weight, state, rows, values, 0.05, 1e-10, ws)
        assert_backend_matches(be, weight, w_ref, f"sparse adagrad weight, {touched} rows")
        assert_backend_matches(be, state, s_ref, f"sparse adagrad state, {touched} rows")
        reference().sgd_sparse_step(w_ref, rows, values, 0.05, None)
        be.sgd_sparse_step(weight, rows, values, 0.05, ws)
        assert_backend_matches(be, weight, w_ref, f"sparse sgd weight, {touched} rows")


@backend_specs
def test_sparse_steps_refuse_out_of_range_row_before_writing(spec):
    """A row past the table raises ``IndexError`` — never a clipped
    update — and leaves weight and state untouched, even when it sits in
    the last of several blocks."""
    be = get_backend(spec)
    dim, dtype = 64, np.float64
    touched = 2 * dense_kernels.sparse_block_rows(np.empty((0, dim), dtype)) + 5
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((touched + 3, dim)).astype(dtype)
    state = np.abs(rng.standard_normal(weight.shape)).astype(dtype)
    rows = np.arange(touched)
    rows[-1] = len(weight)
    values = rng.standard_normal((touched, dim)).astype(dtype)
    w0, s0 = weight.copy(), state.copy()
    ws = make_workspace(be)
    with pytest.raises(IndexError):
        be.adagrad_sparse_step(weight, state, rows, values, 0.05, 1e-10, ws)
    with pytest.raises(IndexError):
        be.sgd_sparse_step(weight, rows, values, 0.05, ws)
    np.testing.assert_array_equal(weight, w0)
    np.testing.assert_array_equal(state, s0)
