"""Dense layers with hand-written gradients.

The MLPs are the data-parallel part of DLRM (paper section 2.1). This is
a minimal, explicit autograd: each layer caches what its backward pass
needs, ``backward`` returns the gradient w.r.t. its input, and parameter
gradients accumulate on the layer until the optimizer consumes them.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .initializers import xavier_uniform


class Linear:
    """Affine layer ``y = x @ W + b`` with cached-input backward.

    ``params`` and ``grads``, when given, are zeroed 1-D fp32 buffers of
    ``(in_features + 1) * out_features`` elements: the weight (then the
    bias) and their gradients are views of them, so a model can update
    all of its layers with a few whole-buffer operations.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        params: np.ndarray | None = None,
        grads: np.ndarray | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise TrainingError("layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        split = in_features * out_features
        if params is None:
            params = np.zeros(split + out_features, np.float32)
            grads = np.zeros_like(params)
        shape = (in_features, out_features)
        self.weight = xavier_uniform(params[:split].reshape(shape), rng)
        self.bias = params[split:]
        self.grad_weight = grads[:split].reshape(shape)
        self.grad_bias = grads[split:]
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise TrainingError(
                f"Linear({self.in_features}->{self.out_features}) got "
                f"input of shape {x.shape}"
            )
        self._input = x
        return x @ self.weight + self.bias

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter gradients; return the input gradient
        (``None`` when ``input_grad`` is off — nothing will read it)."""
        if self._input is None:
            raise TrainingError("backward called before forward")
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += np.add.reduce(grad_out, axis=0)
        self._input = None
        return grad_out @ self.weight.T if input_grad else None

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)


class ReLU:
    """Elementwise max(0, x); caches the activation mask."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise TrainingError("backward called before forward")
        grad_in = np.where(self._mask, grad_out, 0.0).astype(
            np.float32, copy=False
        )
        self._mask = None
        return grad_in


class MLP:
    """A stack of Linear+ReLU layers; the final Linear has no activation.

    ``layer_sizes`` includes the input width, e.g. ``(13, 32, 16)`` is
    13 -> 32 (ReLU) -> 16 (linear output). ``params`` / ``grads``, when
    given, are zeroed 1-D buffers of :meth:`size` elements the layers
    are laid out in, in :meth:`parameters` order.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        rng: np.random.Generator,
        params: np.ndarray | None = None,
        grads: np.ndarray | None = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise TrainingError("MLP needs at least input and output sizes")
        if params is None:
            params = np.zeros(self.size(layer_sizes), dtype=np.float32)
            grads = np.zeros_like(params)
        self.linears: list[Linear] = []
        self.activations: list[ReLU] = []
        offset = 0
        for i in range(len(layer_sizes) - 1):
            fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
            end = offset + (fan_in + 1) * fan_out
            views = params[offset:end], grads[offset:end]
            self.linears.append(Linear(fan_in, fan_out, rng, *views))
            offset = end
            if i < len(layer_sizes) - 2:
                self.activations.append(ReLU())

    @staticmethod
    def size(layer_sizes: tuple[int, ...]) -> int:
        """Parameter elements of an MLP with these layer sizes."""
        return sum((a + 1) * b for a, b in zip(layer_sizes, layer_sizes[1:]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for i, linear in enumerate(self.linears):
            out = linear.forward(out)
            if i < len(self.activations):
                out = self.activations[i].forward(out)
        return out

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        grad = grad_out
        for i in range(len(self.linears) - 1, -1, -1):
            if i < len(self.activations):
                grad = self.activations[i].backward(grad)
            grad = self.linears[i].backward(grad, input_grad or i > 0)
        return grad

    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter views (shared memory, not copies)."""
        params: dict[str, np.ndarray] = {}
        for i, linear in enumerate(self.linears):
            params[f"{prefix}.{i}.weight"] = linear.weight
            params[f"{prefix}.{i}.bias"] = linear.bias
        return params

    def load_parameters(
        self, prefix: str, params: dict[str, np.ndarray]
    ) -> None:
        """Copy values from a state dict into the layer arrays."""
        for i, linear in enumerate(self.linears):
            weight = params[f"{prefix}.{i}.weight"]
            bias = params[f"{prefix}.{i}.bias"]
            if weight.shape != linear.weight.shape:
                raise TrainingError(
                    f"shape mismatch loading {prefix}.{i}.weight: "
                    f"{weight.shape} vs {linear.weight.shape}"
                )
            np.copyto(linear.weight, weight)
            np.copyto(linear.bias, bias)
