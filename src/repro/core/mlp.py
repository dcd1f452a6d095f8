"""Multi-layer perceptron stacks with explicit forward/backward passes.

The two MLP stacks of a recommendation model (paper §III-A.4) — the bottom
stack over dense features and the top stack over the interaction output — are
built from these layers.  Everything is plain numpy with hand-written
backpropagation; no autograd framework is used.
"""

from __future__ import annotations

import numpy as np

from .config import MLPSpec
from .backends import Backend, bind_backend, reference_backend
from .dense_kernels import Workspace, stable_sigmoid
from .lanes import Lanes

__all__ = ["Parameter", "Linear", "ReLU", "Sigmoid", "MLP"]


class Parameter:
    """A learnable tensor with its accumulated gradient.

    Optimizers consume ``(value, grad)`` pairs; ``zero_grad`` resets the
    accumulator between iterations.
    """

    def __init__(
        self,
        value: np.ndarray,
        name: str = "",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.value = np.ascontiguousarray(value, dtype=np.dtype(dtype))
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.shape})"


class Linear:
    """Fully-connected layer ``y = x @ W.T + b``.

    ``input_grad=False`` states that the layer's input is data: ``backward``
    accumulates ``dW``/``db``, computes no ``dx`` and returns ``None``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "linear",
        dtype: np.dtype | type = np.float64,
        input_grad: bool = True,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("Linear dimensions must be positive")
        # He/Kaiming initialization, appropriate for the ReLU stacks used here.
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(out_features, in_features)),
            f"{name}.weight",
            dtype=dtype,
        )
        self.bias = Parameter(np.zeros(out_features), f"{name}.bias", dtype=dtype)
        self.input_grad = input_grad
        self._input: np.ndarray | None = None
        #: A stand-alone layer runs the reference; a model binds its own.
        self.backend: Backend = reference_backend()
        self.workspace: Workspace | None = None
        self._ws_key = name

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        """Bind the compute backend and, if it uses one, its arena
        (:func:`~repro.core.backends.bind_backend`: an arena backend
        without an arena raises ``ValueError``)."""
        self.backend, self.workspace = bind_backend(backend, workspace)
        if key is not None:
            self._ws_key = key

    def _check_dtype(self, what: str, dtype: np.dtype) -> None:
        """The arena kernels write into buffers of the weight dtype, so
        under them numpy would cast a mismatched operand down in silence;
        the reference (no arena) keeps numpy's promotion."""
        if self.workspace is not None and dtype != self.weight.value.dtype:
            raise TypeError(
                f"{self._ws_key}: {what} is {dtype}, weights are "
                f"{self.weight.value.dtype}; cast at the model boundary"
            )

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._check_dtype("input", x.dtype)
        if training:
            self._input = x
        return self.backend.linear_forward(
            x, self.weight.value, self.bias.value, self.workspace, self._ws_key
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self._check_dtype("grad_out", grad_out.dtype)
        x = self._input
        self._input = None
        return self.backend.linear_backward(
            grad_out, x, self.weight.value,
            self.weight.grad, self.bias.grad, self.workspace, self._ws_key,
            dx=self.input_grad,
        )

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU:
    """Rectified linear activation.

    Bound to the fused backend it runs ``np.maximum`` in place
    on arena-owned inputs and recovers activity in the backward from the
    *output* sign (``y > 0  ⇔  x > 0``) — no boolean mask array is saved.
    Bit-identical to the mask-based path (see
    :mod:`repro.core.dense_kernels`).
    """

    def __init__(self) -> None:
        #: What the training forward's backend saved for its backward.
        self._ctx: np.ndarray | None = None
        self.backend: Backend = reference_backend()
        self.workspace: Workspace | None = None
        self._ws_key = "relu"

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        self.backend, self.workspace = bind_backend(backend, workspace)
        if key is not None:
            self._ws_key = key

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        y, ctx = self.backend.relu_forward(
            x, self.workspace, self._ws_key, training=training
        )
        if training:
            self._ctx = ctx
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ctx is None:
            raise RuntimeError("backward called before forward")
        ctx = self._ctx
        self._ctx = None
        return self.backend.relu_backward(grad_out, ctx, self.workspace, self._ws_key)

    def parameters(self) -> list[Parameter]:
        return []


class Sigmoid:
    """Logistic activation (used only when a probability output is needed;
    training goes through the numerically-stable loss in :mod:`repro.core.loss`).

    Shares the single stable-sigmoid implementation
    (:func:`repro.core.dense_kernels.stable_sigmoid`) with
    :func:`repro.core.loss.sigmoid` — historically two copies with
    inconsistent dtype behaviour."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        out = stable_sigmoid(x)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out * self._out * (1.0 - self._out)
        self._out = None
        return grad

    def parameters(self) -> list[Parameter]:
        return []


class MLP:
    """A stack of ``Linear`` + ``ReLU`` layers described by an :class:`MLPSpec`.

    ``final_activation=False`` leaves the last layer linear, which is how the
    top stack feeds the scoring logit.  ``input_grad=False`` says the stack's
    input is data (a model's bottom stack): its first layer computes no
    ``dx`` and :meth:`backward` returns ``None``.
    """

    def __init__(
        self,
        in_features: int,
        spec: MLPSpec,
        rng: np.random.Generator,
        final_activation: bool = True,
        name: str = "mlp",
        dtype: np.dtype | type = np.float64,
        input_grad: bool = True,
    ) -> None:
        self.spec = spec
        self.name = name
        self.layers: list[object] = []
        prev = in_features
        for i, width in enumerate(spec.layer_sizes):
            self.layers.append(
                Linear(
                    prev, width, rng, name=f"{name}.{i}", dtype=dtype,
                    input_grad=input_grad or i > 0,
                )
            )
            is_last = i == len(spec.layer_sizes) - 1
            if final_activation or not is_last:
                self.layers.append(ReLU())
            prev = width
        self.in_features = in_features
        self.out_features = prev
        #: The layers' backend; it runs the stack's passes.
        self.backend: Backend = reference_backend()
        #: Lanes the stack's passes may spread over (:mod:`repro.core.lanes`);
        #: ``None``: one, the caller.
        self.lanes: Lanes | None = None

    def set_backend(self, backend: Backend | str, workspace: Workspace | None = None) -> None:
        """Bind the compute backend (and arena) into every layer of the
        stack.  Layer keys derive from the stack name and position, so one
        arena can serve several MLPs (e.g. a DLRM's bottom/top stacks)
        without buffer aliasing."""
        for idx, layer in enumerate(self.layers):
            if hasattr(layer, "set_backend"):
                layer.set_backend(backend, workspace, key=f"{self.name}[{idx}]")
        self.backend = self.layers[0].backend

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Run the stack, on :attr:`lanes` when bound; ``training=False`` is
        the inference fast path that skips caching activations entirely
        (nothing to discard afterwards, and ``backward`` on an
        inference-only forward raises)."""
        return self.backend.mlp_forward(self.layers, x, self.lanes, training=training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """The gradient w.r.t. the stack's input (``None`` when it was
        built with ``input_grad=False``)."""
        return self.backend.mlp_backward(self.layers, grad_out, self.lanes)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params
