"""Smooth loss models with analytic gradients, and the composed objective.

Three loss families are provided: a separable quadratic (its smoothness
constant is its largest curvature entry), l2-regularized binary logistic
regression, and a small tanh MLP with manual backpropagation (tanh rather
than ReLU keeps the gradient Lipschitz). All gradients are checked against
central finite differences in the test suite.

The module also owns the parameter partition used for layer-wise
quantization: a ``QuantLayout`` lists the coordinate ranges that are
quantized (each range carrying its own center vector); everything outside
those ranges is exempt and passes through the quantizer untouched.

One evaluator, ``eval_F_i_grouped``, computes the per-client objective
F_i = f(x) + f(Q(x, c)) + lambda R(x, c) + lambda_p/2 ||x - w||^2 part by
part; lambda_p = 0 gives the centralized objective F_lambda.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .quantizer import (
    CenterVector,
    QuantConfig,
    grad_soft_quantize_c,
    grad_soft_quantize_x,
    hard_grad_c,
    quantize_assignments,
    sigmoid,
    soft_quantize,
)

__all__ = [
    "LossModel",
    "QuadraticLoss",
    "LogisticLoss",
    "MlpLoss",
    "quadratic_loss",
    "logistic_loss",
    "mlp_loss",
    "QuantLayout",
    "ObjectiveEval",
    "quantize_grouped",
    "hard_quantize_grouped",
    "loss_quant_gradient_x",
    "loss_quant_gradient_c",
    "eval_F_i_grouped",
]


class LossModel(abc.ABC):
    """Differentiable loss over a flat parameter vector of fixed dimension."""

    dim: int

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError("this loss has no classifier head")

    def subset(self, indices: np.ndarray) -> "LossModel":
        raise NotImplementedError("this loss has no dataset to subsample")

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter vector of dim {self.dim}, got {x.shape}")
        return x


class QuadraticLoss(LossModel):
    """f(x) = 1/2 * sum_i H_i (x_i - a_i)^2 with diagonal curvature H > 0."""

    def __init__(self, a: np.ndarray, h_diag: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        h = np.asarray(h_diag, dtype=np.float64)
        if a.shape != h.shape or a.ndim != 1:
            raise ValueError("targets and curvature must be 1-d vectors of equal length")
        if np.any(h <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("curvature entries must be positive and finite")
        self.a = a
        self.h = h
        self.dim = a.size

    def value(self, x):
        x = self._check(x)
        return 0.5 * float(np.sum(self.h * (x - self.a) ** 2))

    def gradient(self, x):
        x = self._check(x)
        return self.h * (x - self.a)


class LogisticLoss(LossModel):
    """Mean binary logistic loss over +-1 labels plus an optional l2 term.

    ``class_labels = (neg, pos)`` records the dataset's original label values
    so that ``predict`` answers in the dataset's label space.
    """

    def __init__(self, features, labels, l2: float = 0.0, class_labels=(-1, 1)):
        z = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("empty dataset")
        if y.shape != (z.shape[0],) or not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be a vector of +-1 matching the feature rows")
        if l2 < 0:
            raise ValueError("l2 must be nonnegative")
        self.features = z
        self.labels = y
        self.l2 = float(l2)
        self.class_labels = tuple(class_labels)
        self.dim = z.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def value(self, x):
        x = self._check(x)
        t = self.labels * (self.features @ x)
        return float(np.mean(np.logaddexp(0.0, -t))) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x):
        x = self._check(x)
        t = self.labels * (self.features @ x)
        # d/dt log(1+e^-t) = -sigmoid(-t)
        s = sigmoid(-t)
        g = -(self.features * (self.labels * s)[:, None]).mean(axis=0)
        return g + self.l2 * x

    def predict(self, x, features):
        x = self._check(x)
        scores = np.asarray(features, dtype=np.float64) @ x
        neg, pos = self.class_labels
        return np.where(scores >= 0, pos, neg)

    def subset(self, indices):
        return LogisticLoss(self.features[indices], self.labels[indices], self.l2, self.class_labels)


class MlpLoss(LossModel):
    """Softmax cross-entropy of a tanh MLP, parameters flattened into one vector.

    Layout: for consecutive sizes (n0, n1, ..., nL) the vector holds
    W1 (n0 x n1), b1, W2, b2, ... in order. ``weight_ranges`` exposes the
    coordinate span of each weight matrix so the trainer can quantize
    layer-wise: every weight layer is quantized and the biases stay exempt.
    """

    def __init__(self, layer_sizes, features, labels, l2: float = 0.0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer")
        z = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("empty dataset")
        if z.shape[1] != sizes[0]:
            raise ValueError("feature dimension does not match the input layer")
        if y.shape != (z.shape[0],) or y.min() < 0 or y.max() >= sizes[-1]:
            raise ValueError("labels must be ints in [0, n_classes)")
        if l2 < 0:
            raise ValueError("l2 must be nonnegative")
        self.sizes = sizes
        self.features = z
        self.labels = y
        self.l2 = float(l2)
        self._spans = []  # (kind, start, stop, shape) in flattening order
        pos = 0
        for a, b in zip(sizes[:-1], sizes[1:]):
            self._spans.append(("weight", pos, pos + a * b, (a, b)))
            pos += a * b
            self._spans.append(("bias", pos, pos + b, (b,)))
            pos += b
        self.dim = pos

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def weight_ranges(self) -> list[tuple[int, int]]:
        return [(s, e) for kind, s, e, _ in self._spans if kind == "weight"]

    def _unpack(self, x):
        params = []
        for kind, s, e, shape in self._spans:
            params.append(x[s:e].reshape(shape))
        return params

    def _forward(self, x, features):
        params = self._unpack(x)
        act = features
        hidden = []
        for li in range(0, len(params) - 2, 2):
            act = np.tanh(act @ params[li] + params[li + 1])
            hidden.append(act)
        logits = act @ params[-2] + params[-1]
        return params, hidden, logits

    @staticmethod
    def _log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def value(self, x):
        x = self._check(x)
        _, _, logits = self._forward(x, self.features)
        logp = self._log_softmax(logits)
        n = self.features.shape[0]
        ce = -float(np.mean(logp[np.arange(n), self.labels]))
        return ce + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x):
        x = self._check(x)
        params, hidden, logits = self._forward(x, self.features)
        n = self.features.shape[0]
        probs = np.exp(self._log_softmax(logits))
        delta = probs
        delta[np.arange(n), self.labels] -= 1.0
        delta /= n
        grads = [None] * len(params)
        acts = [self.features] + hidden
        for li in range(len(params) - 2, -2, -2):
            a_in = acts[li // 2]
            grads[li] = a_in.T @ delta
            grads[li + 1] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ params[li].T) * (1.0 - acts[li // 2] ** 2)
        flat = np.concatenate([g.ravel() for g in grads])
        return flat + self.l2 * x

    def predict(self, x, features):
        x = self._check(x)
        _, _, logits = self._forward(x, np.asarray(features, dtype=np.float64))
        return logits.argmax(axis=1)

    def subset(self, indices):
        return MlpLoss(self.sizes, self.features[indices], self.labels[indices], self.l2)


def quadratic_loss(a, h_diag) -> QuadraticLoss:
    return QuadraticLoss(a, h_diag)


def logistic_loss(features, labels, l2: float = 0.0, class_labels=(-1, 1)) -> LogisticLoss:
    return LogisticLoss(features, labels, l2, class_labels)


def mlp_loss(layer_sizes, features, labels, l2: float = 0.0) -> MlpLoss:
    return MlpLoss(layer_sizes, features, labels, l2)


# ---------------------------------------------------------------------------
# parameter partition and grouped quantization


@dataclass(frozen=True)
class QuantLayout:
    """Quantized coordinate ranges of a flat parameter vector.

    ``groups`` holds half-open [start, stop) ranges, ascending and disjoint;
    each range is quantized with its own center vector. Coordinates outside
    every range are exempt (identity under quantization, no regularizer).
    """

    dim: int
    groups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 0
        for start, stop in self.groups:
            if not (0 <= start < stop <= self.dim):
                raise ValueError(f"group ({start}, {stop}) out of bounds for dim {self.dim}")
            if start < last:
                raise ValueError("groups must be ascending and disjoint")
            last = stop

    @classmethod
    def full(cls, dim: int) -> "QuantLayout":
        return cls(dim, ((0, dim),))

    @classmethod
    def for_mlp(cls, loss: MlpLoss) -> "QuantLayout":
        return cls(loss.dim, tuple(loss.weight_ranges()))

    def check_centers(self, centers) -> list[CenterVector]:
        """One center vector per group, as a list; a lone CenterVector counts as one group."""
        centers = [centers] if isinstance(centers, CenterVector) else list(centers)
        if len(centers) != len(self.groups):
            raise ValueError("need one center vector per quantized group")
        return centers


def quantize_grouped(x, centers, layout: QuantLayout, cfg: QuantConfig) -> np.ndarray:
    """Apply the (soft or hard) quantizer per group; exempt coordinates pass through."""
    if cfg.hard_limit:
        return hard_quantize_grouped(x, centers, layout)
    out = np.array(x, dtype=np.float64)
    for (start, stop), c in zip(layout.groups, centers):
        out[start:stop] = soft_quantize(out[start:stop], c, cfg)
    return out


def _hard_assign_grouped(x, centers, layout: QuantLayout):
    """Nearest-center image of x per group, and the assignments that give it."""
    out = np.array(x, dtype=np.float64)
    assigns = []
    for (start, stop), c in zip(layout.groups, centers):
        assigns.append(quantize_assignments(out[start:stop], c))
        out[start:stop] = c.values[assigns[-1]]
    return out, assigns


def hard_quantize_grouped(x, centers, layout: QuantLayout) -> np.ndarray:
    return _hard_assign_grouped(x, centers, layout)[0]


def loss_quant_gradient_x(loss, x, centers, layout, cfg) -> np.ndarray:
    """Chain-rule gradient of x -> f(Qs(x)) (zero on quantized coords in hard mode)."""
    y = quantize_grouped(x, centers, layout, cfg)
    gy = loss.gradient(y)
    out = gy.copy()  # exempt coordinates see the identity Jacobian
    for (start, stop), c in zip(layout.groups, centers):
        if cfg.hard_limit:
            out[start:stop] = 0.0
        else:
            diag = grad_soft_quantize_x(np.asarray(x)[start:stop], c, cfg)
            out[start:stop] = diag * gy[start:stop]
    return out


def loss_quant_gradient_c(loss, x, centers, layout, cfg) -> list[np.ndarray]:
    """Chain-rule gradient of c -> f(Qs(x)) per group (indicator sums in hard mode)."""
    x = np.asarray(x, dtype=np.float64)
    if cfg.hard_limit:
        y, assigns = _hard_assign_grouped(x, centers, layout)
        gy = loss.gradient(y)
        return [hard_grad_c(a, gy[start:stop], c.m)
                for (start, stop), c, a in zip(layout.groups, centers, assigns)]
    gy = loss.gradient(quantize_grouped(x, centers, layout, cfg))
    return [grad_soft_quantize_c(x[start:stop], c, cfg) @ gy[start:stop]
            for (start, stop), c in zip(layout.groups, centers)]


# ---------------------------------------------------------------------------
# the composed objective


@dataclass(frozen=True)
class ObjectiveEval:
    """Additive parts of the augmented objective; total is their ordered sum."""

    f_x: float
    f_q: float
    reg: float
    prox_penalty: float
    total: float
    quant_error: float  # ||x - Q_hard(x, c)||_1, not part of the total


def eval_F_i_grouped(loss, x, centers, layout, w, cfg, lam, lambda_p) -> ObjectiveEval:
    """F_i = f(x) + f(Q(x, c)) + lam * R(x, c) + lambda_p/2 * ||x - w||^2, by part.

    With lambda_p = 0 this is the centralized objective F_lambda. Each group
    is hard-quantized once: R and ``quant_error`` read that vector, and so
    does f(Q) in hard mode; soft mode adds one soft pass for f(Q). A
    non-finite x (non-finite ``quant_error``) gets a NaN f(Q) and total.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.shape:
        raise ValueError("personalized model and global model differ in dimension")
    centers = layout.check_centers(centers)
    q = hard_quantize_grouped(x, centers, layout)
    r = 0.0
    for start, stop in layout.groups:
        r += 0.5 * float(np.sum(np.abs(x[start:stop] - q[start:stop])))
    quant_error = float(np.sum(np.abs(x - q)))
    f_x = loss.value(x)
    f_q = (float("nan") if not np.isfinite(quant_error)  # soft_quantize would refuse x
           else loss.value(q if cfg.hard_limit else quantize_grouped(x, centers, layout, cfg)))
    reg = lam * r
    pen = 0.5 * lambda_p * float(np.sum((x - w) ** 2)) if lambda_p != 0.0 else 0.0
    return ObjectiveEval(f_x=f_x, f_q=f_q, reg=reg, prox_penalty=pen,
                         total=f_x + f_q + reg + pen, quant_error=quant_error)
