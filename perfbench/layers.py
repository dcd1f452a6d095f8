"""One train step driven layer by layer, each call inside a tracer span.

:func:`layered_step` mirrors ``Trainer.train`` 's loop body — draw a batch,
``Trainer.train_step`` -> ``DLRM.forward`` / ``backward`` ->
``optimizer.step`` — call for call, from outside: only public methods of the
layers are invoked, in the order the program invokes them, so the loss it
returns is bit-identical to ``Trainer.train_step`` on an identically seeded
model (the traced run checks that) and the layer shares are shares of the
real step.  The one reordering is ``plan_batch``: the program plans each
table right before gathering it, here all tables are planned and then all
gathered, so planning and gathering can be timed apart.

Span names are the per-layer metric names minus the ``_ms`` suffix.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

ROOT_SPAN = "step"


def layered_step(trainer, gen, batch_size: int, tracer, step: int, plan_span: str):
    """Returns ``(loss, batch, plans)`` of one traced step."""
    model, opt, loss_fn = trainer.model, trainer.optimizer, trainer.loss
    order = [t.name for t in model.config.tables]

    def span(name: str, category: str):
        return tracer.span(name, category, step=step)

    with span(ROOT_SPAN, "iteration"):
        with span("data.gen", "data"):
            batch = gen.batch(batch_size)
        with span("optim.zero_grad", "compute"):
            opt.zero_grad()
        with span("mlp.bottom_fwd", "compute"):
            dense_out = model.bottom_mlp.forward(
                batch.dense.astype(model.dtype, copy=False), training=True
            )
        with span(plan_span, "memory"):
            plans = model.embeddings.plan_batch(batch.sparse)
        with span("embedding.fwd", "memory"):
            emb_out = model.embeddings.forward(batch.sparse, training=True, plans=plans)
        with span("interaction.fwd", "compute"):
            interacted = model.interaction.forward(
                dense_out, [emb_out[name] for name in order], training=True
            )
        with span("mlp.top_fwd", "compute"):
            top_out = model.top_mlp.forward(interacted, training=True)
            logits = model.scorer.forward(top_out, training=True).reshape(-1)
            if model.workspace is not None and model.workspace.owns(logits):
                logits = logits.copy()
        with span("loss.fwd_bwd", "compute"):
            loss = loss_fn.forward(logits, batch.labels)
            grad = loss_fn.backward()
        with span("mlp.top_bwd", "compute"):
            grad = np.asarray(grad, dtype=model.dtype).reshape(-1, 1)
            grad = model.top_mlp.backward(model.scorer.backward(grad))
        with span("interaction.bwd", "compute"):
            grad_dense, grad_embs = model.interaction.backward(grad)
        with span("embedding.bwd", "memory"):
            model.embeddings.backward(dict(zip(order, grad_embs)))
        with span("mlp.bottom_bwd", "compute"):
            model.bottom_mlp.backward(grad_dense)
        with span("optim.dense", "compute"):
            opt.dense_step()
        with span("optim.sparse", "memory"):
            for i, table in enumerate(opt.tables):
                sparse_grad = table.pop_grad()
                if sparse_grad is not None:
                    opt.sparse_update(i, sparse_grad)
    return loss, batch, plans


def self_times(tracer) -> dict[str, dict[int, float]]:
    """Span name -> step id -> self seconds.

    A span's self time is its duration minus what its child spans cover;
    spans are strictly nested on one thread, so children never overlap.
    Only :data:`ROOT_SPAN` spans and their direct children are counted —
    the tracer also holds the program's own spans from other phases.
    """
    spans = tracer.spans
    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.t1 is not None:
            child_s[s.parent] += s.duration
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        layered = s.name == ROOT_SPAN or (
            s.parent is not None and spans[s.parent].name == ROOT_SPAN
        )
        if s.t1 is None or not layered:
            continue
        out[s.name][s.attributes["step"]] += s.duration - child_s[i]
    return out


def layer_table(tracer) -> tuple[dict[str, float], dict[str, float], float]:
    """``(median self ms per step, share of the layered step, layered ms)``
    per span name, over the steps under :data:`ROOT_SPAN`."""
    selfs = self_times(tracer)
    roots = [s for s in tracer.spans if s.name == ROOT_SPAN and s.t1 is not None]
    total = sum(s.duration for s in roots)
    median_ms = {
        name: statistics.median(per_step.values()) * 1e3
        for name, per_step in selfs.items()
    }
    share = {name: sum(per_step.values()) / total for name, per_step in selfs.items()}
    layered_ms = statistics.median(s.duration for s in roots) * 1e3
    return median_ms, share, layered_ms
