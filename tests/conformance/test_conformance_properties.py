"""Property tests for the backend seam (hypothesis over the whole model).

Arbitrary architectures (dense width, table count/dim, MLP widths,
interaction type), batch sizes, compute dtypes and backends must produce
predictions and gradients through a full :class:`Trainer` step that match
the ``"numpy"`` reference — bit-identically for bit-identical backends,
within the declared tolerance otherwise.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DLRM, Adagrad, InteractionType, MLPSpec, ModelConfig, SGD, Trainer, get_backend,
    uniform_tables,
)

from backend_cases import BACKEND_SPECS, assert_backend_matches
from helpers import make_batch


def draw_case(integer, choice):
    """(config, batch_size) spanning small but adversarial architectures,
    drawn through ``integer(lo, hi)`` / ``choice(seq)``: hypothesis below,
    ``random.Random`` in ``fuzz_replay.py``."""
    dim = integer(1, 6)
    config = ModelConfig(
        name="prop",
        num_dense=integer(1, 8),
        tables=uniform_tables(
            integer(1, 4), choice([16, 50]), dim=dim, mean_lookups=choice([1.0, 2.5])
        ),
        # the bottom stack must end at the embedding dim for DOT
        bottom_mlp=MLPSpec((integer(2, 8), dim)),
        top_mlp=MLPSpec((integer(1, 6),)),
        interaction=choice([InteractionType.DOT, InteractionType.CONCAT]),
        compute_dtype=choice(["float64", "float32"]),
    )
    return config, integer(1, 24)


OPTIMIZERS = ["adagrad", "sgd"]
MAX_SEED = 2**31 - 1


def replay_cases(count: int, seed: int = 1):
    """The first ``count`` draws of ``fuzz_replay.py``: ``(case, optimizer,
    batch seed)`` from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(count):
        case = draw_case(rng.randint, rng.choice)
        yield case, rng.choice(OPTIMIZERS), rng.randint(0, MAX_SEED)


#: Replayed cases (``make fuzz-replay``, seed 1) where fused once differed
#: from numpy, all at embedding dim 1, where a product is one wide and its
#: summation order follows its operands' layout: four CONCAT runs (the
#: bottom stack's gradient arrived as a strided view) and six DOT runs (the
#: reference's interaction output was F-ordered).
ONE_WIDE_CASES = (2, 236, 358, 437, 533, 631, 884, 917, 1365, 1414)


def pinned_one_wide_cases(test):
    drawn = list(replay_cases(max(ONE_WIDE_CASES) + 1))
    for i in reversed(ONE_WIDE_CASES):
        case, optimizer, seed = drawn[i]
        test = example(case=case, spec="fused", optimizer=optimizer, seed=seed)(test)
    return test


@st.composite
def model_cases(draw):
    return draw_case(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)),
        lambda seq: draw(st.sampled_from(seq)),
    )


@settings(max_examples=12, deadline=None)
@pinned_one_wide_cases
@given(
    case=model_cases(),
    spec=st.sampled_from(BACKEND_SPECS),
    optimizer=st.sampled_from(OPTIMIZERS),
    seed=st.integers(min_value=0, max_value=MAX_SEED),
)
def test_trainer_step_matches_reference_for_any_architecture(
    case, spec, optimizer, seed
):
    config, batch_size = case
    be = get_backend(spec)
    batch = make_batch(config, batch_size, seed=seed)

    def run(backend):
        model = DLRM(config, rng=0, backend=backend)
        if optimizer == "adagrad":
            factory = lambda m: Adagrad(  # noqa: E731
                m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
            )
        else:
            factory = lambda m: SGD(  # noqa: E731
                m.dense_parameters(), m.embedding_tables(),
                lr=0.05, momentum=0.9, backend=m.backend,
            )
        trainer = Trainer(model, factory)
        pre = model.predict_proba(batch)
        loss = trainer.train_step(batch)
        post = model.predict_proba(batch)
        return model, pre, loss, post

    model_b, pre_b, loss_b, post_b = run(be)
    model_n, pre_n, loss_n, post_n = run("numpy")

    assert_backend_matches(be, pre_b, pre_n, "pre-step predictions")
    if be.bit_identical:
        assert loss_b == loss_n
    else:
        # the float64 loss scalar inherits the model dtype's rounding
        rtol, atol = be.tolerance(np.dtype(config.compute_dtype))
        assert np.isclose(loss_b, loss_n, rtol=rtol, atol=atol)
    # gradients of the step (still held on the parameters until the next
    # zero_grad) and the updated state must agree
    for pb, pn in zip(model_b.dense_parameters(), model_n.dense_parameters()):
        assert_backend_matches(be, pb.grad, pn.grad, f"grad {pn.name}")
        assert_backend_matches(be, pb.value, pn.value, f"value {pn.name}")
    for tb, tn in zip(model_b.embedding_tables(), model_n.embedding_tables()):
        assert_backend_matches(be, tb.weight, tn.weight, "table weight")
    assert_backend_matches(be, post_b, post_n, "post-step predictions")
