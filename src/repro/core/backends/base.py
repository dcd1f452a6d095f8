"""The compute-backend seam: one protocol for the dense-path hot ops.

The paper's core method is running the *same* DLRM workload across
hardware/software configurations and comparing training efficiency
(§II, §VI).  Our functional model mirrors that by routing every hot
dense-path operation — GEMM/linear forward+backward, ReLU, an MLP stack's
training pass, the fused sigmoid+BCE loss, the two feature interactions
and the optimizer update steps — through a small :class:`Backend`
protocol.  (The embedding tables
call :mod:`repro.core.kernels` under every backend; there a backend only
decides where results are stored.)

Two backends register here:

* ``"numpy"`` — the naive reference implementations (the historical
  layer code, one temporary per operation).  Every other backend is
  validated *against* this one by the conformance suite
  (``tests/conformance/``).
* ``"fused"`` — the allocation-free kernels of
  :mod:`repro.core.dense_kernels` running through a
  :class:`~repro.core.dense_kernels.Workspace` arena.
  Bit-identical to ``"numpy"`` in both float64 and float32.

Which kernel runs is decided once.  ``ModelConfig.backend`` (or
``DLRM(backend=)``) goes through one lookup, :func:`get_backend`, and the
model binds the result — with its arena — into every layer, the loss and
the optimizer (:func:`bind_backend`); no ``forward`` / ``backward``
chooses again.  Intra-op GEMM parallelism is the BLAS library's thread
count, not a backend: in the top-level process a deployment setting
(``OPENBLAS_NUM_THREADS`` and friends); a forked worker lowers it to its
share of the cores (:func:`~repro.core.lanes.take_share`).

A new backend is validated by registration alone: the conformance suite
parametrizes over :func:`known_backends` and asserts every op against
the ``"numpy"`` reference — exactly (``np.array_equal``) when the
backend claims :attr:`Backend.bit_identical`, within
:meth:`Backend.tolerance` otherwise.

Pickling contract (``SweepRunner`` process pools): registered backends
reduce to ``get_backend(name)``, so a model shipped to a worker process
re-resolves the *worker's* registered instance — backend-private
state never crosses the process boundary.
"""

from __future__ import annotations

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "known_backends",
    "bind_backend",
    "reference_backend",
    "DEFAULT_BACKEND",
]

#: The backend selected when a config does not say otherwise.
DEFAULT_BACKEND = "fused"

_REGISTRY: dict[str, "Backend"] = {}


class Backend:
    """Protocol for the dense-path hot ops.

    Subclasses set the class attributes and implement every op.  Ops
    that take ``ws``/``key`` may use the workspace arena for buffer
    reuse (:func:`bind_backend` refuses a ``uses_workspace=True`` backend
    without one); reference-style backends ignore both.

    ``linear_backward`` / the optimizer steps mutate their gradient /
    parameter arguments in place, matching the layer contract.
    """

    #: Registry name (``ModelConfig.backend`` value).
    name: str = ""
    #: True if every op is bit-identical (``np.array_equal``) to the
    #: ``"numpy"`` reference in both float64 and float32 — the claim the
    #: conformance suite enforces.
    bit_identical: bool = False
    #: True if the backend's ops require a :class:`Workspace` arena.
    uses_workspace: bool = False

    def tolerance(self, dtype) -> tuple[float, float]:
        """``(rtol, atol)`` bound vs the reference for non-bit-identical
        backends; bit-identical backends return ``(0.0, 0.0)``."""
        return (0.0, 0.0)

    # -- linear --------------------------------------------------------------

    def linear_forward(self, x, weight, bias, ws, key):
        """``y = x @ W.T + b`` — returns ``(batch, out_features)``."""
        raise NotImplementedError

    def linear_backward(self, grad_out, x, weight, weight_grad, bias_grad, ws, key,
                        *, dx=True):
        """Accumulate ``dW``/``db`` into ``weight_grad``/``bias_grad`` in
        place and return ``dx`` — or, with ``dx=False`` (the layer's input
        is data, nobody reads its gradient), compute no ``dx``, hold no
        buffer for one and return ``None``; ``dW``/``db`` are the same bits
        either way."""
        raise NotImplementedError

    # -- relu ----------------------------------------------------------------

    def relu_forward(self, x, ws, key, *, training=True):
        """Returns ``(y, ctx)``; ``ctx`` is backend-private state the
        matching :meth:`relu_backward` consumes (``None`` if not training)."""
        raise NotImplementedError

    def relu_backward(self, grad_out, ctx, ws, key):
        raise NotImplementedError

    # -- MLP stacks ----------------------------------------------------------

    def mlp_forward(self, layers, x, lanes, *, training=True):
        """A stack's forward: ``layers`` (``Linear`` / ``ReLU``) in order
        on ``x``, each saving what its backward reads when ``training``.
        ``lanes`` (:class:`~repro.core.lanes.Lanes` or ``None``) may share
        the work; the result and the saved state are the serial loop's
        either way."""
        for layer in layers:
            x = layer.forward(x, training=training)
        return x

    def mlp_backward(self, layers, grad, lanes):
        """The stack's backward after :meth:`mlp_forward`: accumulates
        every layer's parameter gradients and returns the input gradient
        (``None`` when the first layer computes none)."""
        for layer in reversed(layers):
            grad = layer.backward(grad)
        return grad

    # -- bce loss ------------------------------------------------------------

    def bce_forward(self, logits, labels, ws):
        """Returns ``(loss, ctx)`` where ``loss`` is the float mean BCE."""
        raise NotImplementedError

    def bce_backward(self, logits, labels, ctx, ws):
        """Returns the flat logit gradient ``(sigmoid(x) - y) / batch``."""
        raise NotImplementedError

    # -- feature interaction -------------------------------------------------

    def dot_forward(self, dense, embs, tril, out_map, ws, key, *, training=True, lanes=None):
        """Pairwise-dot interaction over ``[dense, emb_1, ..., emb_n]``;
        ``embs`` is the feature-major ``(n, batch, d)`` array of pooled
        embeddings or a sequence of ``(batch, d)`` arrays.  Returns
        ``(out, ctx)``; ``ctx`` is backend-private state the matching
        :meth:`dot_backward` consumes.  ``lanes`` (as for
        :meth:`mlp_forward`) may share the work of both."""
        raise NotImplementedError

    def dot_backward(self, ctx, grad_out, dim, tril, pair_map, ws, key, *, lanes=None):
        """Returns ``(grad_dense, grad_embs)``; ``grad_embs[i]`` is feature
        ``i``'s ``(batch, d)`` gradient."""
        raise NotImplementedError

    def concat_forward(self, dense, embs, dim, ws, key):
        """Concatenate ``[dense, emb_1, ..., emb_n]`` along features
        (``embs`` as for :meth:`dot_forward`)."""
        raise NotImplementedError

    def concat_backward(self, grad_out, dense_width, num_sparse, dim, ws, key):
        """Split :meth:`concat_forward` 's output gradient; returns
        ``(grad_dense, grad_embs)`` as :meth:`dot_backward` does."""
        raise NotImplementedError

    # -- optimizer steps -----------------------------------------------------

    def adagrad_dense_step(self, value, grad, state, lr, eps, ws):
        raise NotImplementedError

    def adagrad_sparse_step(self, weight, state, rows, values, lr, eps, ws):
        raise NotImplementedError

    def sgd_dense_step(self, value, grad, lr, ws, *, weight_decay=0.0,
                       momentum=0.0, velocity=None):
        raise NotImplementedError

    def sgd_sparse_step(self, weight, rows, values, lr, ws):
        raise NotImplementedError

    # -- pickling ------------------------------------------------------------

    def __reduce__(self):
        # Registered instances reduce to a name lookup so process-pool
        # workers re-resolve their own instance.
        if _REGISTRY.get(self.name) is self:
            return (get_backend, (self.name,))
        return super().__reduce__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def register_backend(backend: Backend, *, overwrite: bool = False) -> Backend:
    """Register ``backend`` under its :attr:`~Backend.name`.

    Registration is all a new backend needs to be picked up by
    ``ModelConfig(backend=...)`` and the conformance suite.
    """
    if not backend.name:
        raise ValueError("backend must set a non-empty name")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def known_backends() -> tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    return tuple(_REGISTRY)


def get_backend(spec: "str | Backend | None") -> Backend:
    """The backend a config value selects: a registered name, ``None``
    (:data:`DEFAULT_BACKEND`) or an instance, which passes through."""
    if isinstance(spec, Backend):
        return spec
    try:
        return _REGISTRY[DEFAULT_BACKEND if spec is None else spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def reference_backend() -> Backend:
    """The ``"numpy"`` reference every backend is validated against."""
    return get_backend("numpy")


def bind_backend(spec: "str | Backend | None", workspace):
    """Bind time: ``(backend, arena)`` for a layer that will compute with
    ``spec`` through ``workspace``.  ``arena`` is ``workspace`` under a
    backend that uses one and ``None`` otherwise, so a bound layer holds an
    arena exactly when its kernels write into it; an arena backend without
    an arena is refused here, once, not worked around per call."""
    backend = get_backend(spec)
    if not backend.uses_workspace:
        return backend, None
    if workspace is None:
        raise ValueError(
            f"backend {backend.name!r} computes through a Workspace arena; "
            f"pass one, or select {reference_backend().name!r}"
        )
    return backend, workspace
