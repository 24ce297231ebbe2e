"""Smooth loss models with analytic gradients, and the composed objective.

Three loss families are provided: a separable quadratic (its smoothness
constant is its largest curvature entry), l2-regularized binary logistic
regression, and a one-hidden-layer tanh MLP with a hand-written two-layer
backward pass (tanh rather than ReLU keeps the gradient Lipschitz). All
gradients are checked against central finite differences in the test suite.
``stack_losses`` turns a population's losses into one stack whose passes take
an (n, dim) array, one parameter vector per row: ``value``, ``gradient`` and
``value_and_grad``, which gives the pair of the first two, bit for bit, from one
forward pass. MLP losses of one shape and row count run one batched pass
(``_MlpRows``), of which ``MlpLoss`` is the one-member case; its temporaries live
in a workspace shared per array shape (``_mlp_workspace``) instead of being
allocated per call, and its log-softmax reduces over the classes along long
rows of a classes-first plane.

The module also owns the parameter partition used for layer-wise
quantization: a ``QuantLayout`` lists the coordinate ranges that are
quantized (each range carrying its own center vector); everything outside
those ranges is exempt and passes through the quantizer untouched.

One evaluator, ``objective_rows``, computes each row's objective
F_i = f(x) + f(Q(x, c)) + lambda R(x, c) + lambda_p/2 ||x - w||^2 part by
part; lambda_p = 0 gives the centralized objective F_lambda, and
``eval_F_i_grouped`` is its one-row case. On request it also returns the gradient
of f(x) + f(Q(x, c)) in x from the same passes, the x-gradient of the trainer's
full-batch step that starts at x. The quantizer and its gradients follow suit,
soft or hard: ``quantize_rows`` and ``quant_gradient_{x,c}_rows`` run a
population, one call per group, and ``loss_quant_gradient_{x,c}`` one vector.
Other one-vector callers run the row functions on ``x[None]`` and
``_one_row(centers)``. Nothing in qupel calls ``eval_F_i_grouped`` or
``loss_quant_gradient_{x,c}``; they stay because the benchmark's span table
times them by name.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .quantizer import (
    CenterStack,
    CenterVector,
    assign_rows,
    hard_grad_c_rows,
    sigmoid,
    soft_grad_c_rows,
    soft_grad_x_rows,
    soft_quantize_rows,
    take_rows,
)

__all__ = [
    "LossModel",
    "QuadraticLoss",
    "LogisticLoss",
    "MlpLoss",
    "QuantLayout",
    "ObjectiveEval",
    "loss_quant_gradient_x",
    "loss_quant_gradient_c",
    "eval_F_i_grouped",
    "stack_losses",
    "quantize_rows",
    "hard_quantize_rows",
    "quant_gradient_x_rows",
    "quant_gradient_c_rows",
    "objective_rows",
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


# Scratch arrays of the MLP passes, one set per (members, rows, hidden, classes)
# shape, kept for the life of the process: every pass of a population, and every
# one-member pass of one row count, shares a set. A pass overwrites its set, so the
# passes are not reentrant (qupel runs in one thread) and no returned value aliases it.
_MLP_WORKSPACES: dict[tuple[int, int, int, int], tuple[np.ndarray, ...]] = {}


def _mlp_workspace(n: int, rows: int, n_hid: int, n_out: int) -> tuple[np.ndarray, ...]:
    """(hidden, backward delta, logits, log-softmax, per-row reduction, per-row label
    entry) for n members of ``rows`` rows each. The logits are (n, rows, classes), the
    matmul's layout, and the log-softmax a classes-first (classes, n * rows) plane. A
    pass reuses each once it is spent: the logits' memory for the exp plane, the
    log-softmax's for the (n, rows, classes) softmax delta."""
    ws = _MLP_WORKSPACES.get((n, rows, n_hid, n_out))
    if ws is None:
        ws = _MLP_WORKSPACES[n, rows, n_hid, n_out] = (
            np.empty((n, rows, n_hid)), np.empty((n, rows, n_hid)), np.empty((n, rows, n_out)),
            np.empty((n_out, n * rows)), np.empty(n * rows), np.empty((n, rows)))
    return ws


def _mlp_slices(sizes) -> tuple[slice, slice, slice, slice]:
    """The spans of W1 (inputs x hidden), b1, W2 (hidden x classes) and b2."""
    n_in, n_hid, n_out = sizes
    w1 = slice(0, n_in * n_hid)
    b1 = slice(w1.stop, w1.stop + n_hid)
    w2 = slice(b1.stop, b1.stop + n_hid * n_out)
    return w1, b1, w2, slice(w2.stop, w2.stop + n_out)


def _pairwise_sum(e: np.ndarray) -> np.ndarray:
    """The column sums of a (k, N) plane of positive entries, each bitwise numpy's sum
    of that column as one contiguous row (``np.sum(e.T, axis=1)``): numpy's pairwise
    rule, run down the k rows of e, which it overwrites. Returns the row holding them."""
    k = len(e)
    if k < 8:  # in order
        for i in range(1, k):
            e[0] += e[i]
        return e[0]
    if k <= 128:  # eight partial sums, combined as a tree, then the rest in order
        stop = k - k % 8
        for i in range(8, stop, 8):
            e[:8] += e[i:i + 8]
        e[0:8:2] += e[1:8:2]
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
        for i in range(stop, k):
            e[0] += e[i]
        return e[0]
    half = k // 2
    half -= half % 8
    total = _pairwise_sum(e[:half])
    total += _pairwise_sum(e[half:])
    return total


class _MlpRows:
    """The MLP losses of n members of one shape and row count, as one batched pass.

    ``features`` is (n, rows, inputs) and ``labels`` (n, rows); row i of a parameter
    stack is member i's vector. Each matmul runs one BLAS call per member on its own
    (rows, classes) operands, and each sum over a member's rows runs along them, so a
    member's value and gradient are bitwise those of its own one-member pass. The
    log-softmax runs classes first, on a (classes, n * rows) plane, so that its max and
    sum over the classes are a few operations on long rows; the sum follows numpy's
    pairwise order (``_pairwise_sum``), so each row's value is that of ``np.sum``.
    """

    def __init__(self, sizes, features: np.ndarray, labels: np.ndarray, l2: np.ndarray):
        self.sizes = sizes
        self.features, self.labels, self.l2 = features, labels, l2
        n, rows = labels.shape
        self.dim = _mlp_slices(sizes)[3].stop
        # flat positions of each row's label entry in the (classes, n * rows) plane
        self._label_at = labels * (n * rows) + np.arange(n * rows).reshape(n, rows)

    def subset(self, batches) -> "_MlpRows":
        """Member i restricted to its rows ``batches[i]``; every batch has one length."""
        pick = np.arange(len(batches))[:, None], np.stack(batches)
        return _MlpRows(self.sizes, self.features[pick], self.labels[pick], self.l2)

    def forward(self, x: np.ndarray, features: np.ndarray):
        """The workspace of ``features``'s shape, filled with the tanh hidden layer and
        the raw logits of every member ``x[i]`` on its ``features[i]``."""
        ws = self._scores(x, features)
        logits = ws[2]
        np.add(logits, x[:, None, _mlp_slices(self.sizes)[3]], out=logits)
        return ws

    def _scores(self, x, features):
        """``forward`` without the output bias."""
        n_in, n_hid, n_out = self.sizes
        n, rows = features.shape[:2]
        w1, b1, w2, _ = _mlp_slices(self.sizes)
        ws = _mlp_workspace(n, rows, n_hid, n_out)
        hidden, _, scores, _, _, _ = ws
        np.matmul(features, x[:, w1].reshape(n, n_in, n_hid), out=hidden)
        np.add(hidden, x[:, None, b1], out=hidden)
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, x[:, w2].reshape(n, n_hid, n_out), out=scores)
        return ws

    def _log_probs(self, x):
        """The workspace of the training rows, its plane holding the log-softmax."""
        ws = self._scores(x, self.features)
        _, _, scores, logp, red, _ = ws
        n, rows, n_out = scores.shape
        b2 = x[:, _mlp_slices(self.sizes)[3]]
        np.add(scores.transpose(2, 0, 1), b2.T[:, :, None], out=logp.reshape(n_out, n, rows))
        np.maximum.reduce(logp, axis=0, out=red)
        np.subtract(logp, red, out=logp)
        expo = scores.reshape(n_out, n * rows)  # the logits are spent
        np.exp(logp, out=expo)
        np.log(_pairwise_sum(expo), out=red)
        np.subtract(logp, red, out=logp)
        return ws

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._value(x, self._log_probs(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._backward(x, self._log_probs(x))

    def value_and_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(value(x), gradient(x))`` from one forward pass."""
        ws = self._log_probs(x)
        return self._value(x, ws), self._backward(x, ws)

    def _value(self, x, ws):
        _, _, _, logp, _, picked = ws
        np.take(logp, self._label_at, out=picked)
        return 0.5 * self.l2 * np.vecdot(x, x) - np.mean(picked, axis=1)

    def _backward(self, x, ws):
        _, n_hid, n_out = self.sizes
        n, rows = self.labels.shape
        w1, b1, w2, b2 = _mlp_slices(self.sizes)
        hidden, back, scores, logp, _, picked = ws
        soft = scores.reshape(n_out, n * rows)
        np.exp(logp, out=soft)  # dce/dlogits = (softmax - one-hot) / rows
        np.take(soft, self._label_at, out=picked)
        np.subtract(picked, 1.0, out=picked)
        np.put(soft, self._label_at, picked)
        delta = logp.reshape(n, rows, n_out)  # the log-softmax is spent
        np.divide(soft.reshape(n_out, n, rows).transpose(1, 2, 0), rows, out=delta)
        g = np.empty((n, self.dim))
        g[:, w2] = np.matmul(hidden.transpose(0, 2, 1), delta).reshape(n, -1)
        g[:, b2] = delta.sum(axis=1)
        np.matmul(delta, x[:, w2].reshape(n, n_hid, n_out).transpose(0, 2, 1), out=back)
        np.multiply(hidden, hidden, out=hidden)  # tanh' = 1 - hidden**2
        np.subtract(1.0, hidden, out=hidden)
        back *= hidden
        g[:, w1] = np.matmul(self.features.transpose(0, 2, 1), back).reshape(n, -1)
        g[:, b1] = back.sum(axis=1)
        g += self.l2[:, None] * x
        return g


class MlpLoss(LossModel):
    """Softmax cross-entropy of a one-hidden-layer tanh MLP, parameters in one vector.

    ``layer_sizes = (inputs, hidden, classes)``; the vector holds W1
    (inputs x hidden), b1, W2 (hidden x classes) and b2 in that order. Every
    client of a federation has this one shape, so the server can average them.
    ``weight_ranges`` gives the spans of W1 and W2: both weight layers are
    quantized and the biases stay exempt. Each pass is the one-member case of
    the batched pass that a population of these losses runs.
    """

    def __init__(self, layer_sizes, features, labels, l2: float = 0.0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) != 3:
            raise ValueError(f"layer_sizes must be (inputs, hidden, classes), "
                             f"one hidden layer; got {sizes}")
        n_in, n_hid, n_out = sizes
        z = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("empty dataset")
        if z.shape[1] != n_in:
            raise ValueError("feature dimension does not match the input layer")
        if y.shape != (z.shape[0],) or y.min() < 0 or y.max() >= n_out:
            raise ValueError("labels must be ints in [0, n_classes)")
        if l2 < 0:
            raise ValueError("l2 must be nonnegative")
        self.sizes = sizes
        self.features = z
        self.labels = y
        self.l2 = float(l2)
        self._rows = _MlpRows(sizes, z[None], y[None], np.array([self.l2]))
        self.dim = self._rows.dim

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def weight_ranges(self) -> list[tuple[int, int]]:
        w1, _, w2, _ = _mlp_slices(self.sizes)
        return [(w1.start, w1.stop), (w2.start, w2.stop)]

    def value(self, x):
        return float(self._rows.value(self._check(x)[None])[0])

    def gradient(self, x):
        return self._rows.gradient(self._check(x)[None])[0]

    def predict(self, x, features):
        x = self._check(x)
        features = np.asarray(features, dtype=np.float64)
        # the raw logits, not their log-softmax: the shift can round two to a tie
        logits = self._rows.forward(x[None], features[None])[2]
        return logits[0].argmax(axis=1)

    def subset(self, indices):
        return MlpLoss(self.sizes, self.features[indices], self.labels[indices], self.l2)


class _MemberRows:
    """Any losses as a stack: each member's own ``gradient`` and ``value`` on its row."""

    def __init__(self, losses):
        self.losses = list(losses)

    def subset(self, batches) -> "_MemberRows":
        return _MemberRows(loss.subset(b) for loss, b in zip(self.losses, batches))

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.array([loss.value(row) for loss, row in zip(self.losses, x)])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.array([loss.gradient(row) for loss, row in zip(self.losses, x)])

    def value_and_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.value(x), self.gradient(x)


def stack_losses(losses):
    """The losses of a population as one stack, whose ``gradient`` and ``value`` take an
    (n, dim) array and answer for every row, and whose ``subset(batches)`` restricts
    member i to its rows ``batches[i]``. MLP losses of one shape and row count run one
    batched pass; any other population calls each member."""
    first = losses[0]
    if not all(type(loss) is MlpLoss and loss.sizes == first.sizes
               and loss.n_samples == first.n_samples for loss in losses):
        return _MemberRows(losses)
    if len(losses) == 1:
        return first._rows
    return _MlpRows(first.sizes, np.stack([loss.features for loss in losses]),
                    np.stack([loss.labels for loss in losses]),
                    np.array([loss.l2 for loss in losses]))


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

    def check_centers(self, centers, dim: int) -> list[CenterVector]:
        """``centers`` as a list, which must hold one CenterVector per group, for a loss of
        ``dim`` parameters, which must be the layout's ``dim``."""
        if dim != self.dim:
            raise ValueError(f"layout is for {self.dim} parameters, the loss has {dim}")
        if isinstance(centers, CenterVector) or len(centers) != len(self.groups):
            raise ValueError(f"centers are a list of CenterVectors, one per quantized group: "
                             f"need {len(self.groups)}")
        return list(centers)


def quantize_rows(x: np.ndarray, centers: list[CenterStack], layout, cfg) -> np.ndarray:
    """The (soft or hard) quantizer of every row of x at its own centers, one call per
    group; exempt coordinates pass through. No input check."""
    if cfg.hard_limit:
        return hard_quantize_rows(x, centers, layout)[0]
    out = x.copy()
    for (start, stop), c in zip(layout.groups, centers):
        out[:, start:stop] = soft_quantize_rows(x[:, start:stop], c, cfg.sharpness)
    return out


def hard_quantize_rows(x: np.ndarray, centers: list[CenterStack], layout: QuantLayout,
                       assigns=None):
    """Nearest-center image of every row of x per group, and the per-group assignments
    that give it (``assigns``, when given, are those of x)."""
    if assigns is None:
        assigns = [assign_rows(x[:, start:stop], c.mids)
                   for (start, stop), c in zip(layout.groups, centers)]
    out = x.copy()
    for (start, stop), c, a in zip(layout.groups, centers, assigns):
        out[:, start:stop] = take_rows(c.values, a)
    return out, assigns


def _one_row(centers) -> list[CenterStack]:
    """One client's centers, a CenterVector per group, as one-row stacks."""
    return [CenterStack.of([c]) for c in centers]


def loss_quant_gradient_x(loss, x, centers, layout, cfg) -> np.ndarray:
    """Chain-rule gradient of x -> f(Qs(x)) (zero on quantized coords in hard mode)."""
    x = np.asarray(x, dtype=np.float64)[None]
    return quant_gradient_x_rows(stack_losses([loss]), x, _one_row(centers), layout, cfg)[0]


def quant_gradient_x_rows(losses, x, centers: list[CenterStack], layout, cfg,
                          gy=None) -> np.ndarray:
    """``loss_quant_gradient_x`` of every row of x, one Jacobian call per group. ``gy``,
    when given, is the loss gradient at ``quantize_rows(x, ...)``, and is scaled in place."""
    if gy is None:
        gy = losses.gradient(quantize_rows(x, centers, layout, cfg))
    for (start, stop), c in zip(layout.groups, centers):  # exempt: the identity Jacobian
        if cfg.hard_limit:
            gy[:, start:stop] = 0.0
        else:
            gy[:, start:stop] *= soft_grad_x_rows(x[:, start:stop], c, cfg.sharpness)
    return gy


def loss_quant_gradient_c(loss, x, centers, layout, cfg) -> list[np.ndarray]:
    """Chain-rule gradient of c -> f(Qs(x)) per group (indicator sums in hard mode)."""
    x = np.asarray(x, dtype=np.float64)
    return [h[0] for h in quant_gradient_c_rows(stack_losses([loss]), x[None],
                                                 _one_row(centers), layout, cfg)]


def quant_gradient_c_rows(losses, x, centers: list[CenterStack], layout, cfg,
                          assigns=None) -> list[np.ndarray]:
    """``loss_quant_gradient_c`` of every row of x, per group as (n, m_max) with zero
    pads, one call per group; hard mode sums each row's entries in one offset bincount."""
    if cfg.hard_limit:
        y, assigns = hard_quantize_rows(x, centers, layout, assigns)
        gy = losses.gradient(y)
        return [hard_grad_c_rows(a, gy[:, start:stop], c.values.shape[1])
                for (start, stop), c, a in zip(layout.groups, centers, assigns)]
    gy = losses.gradient(quantize_rows(x, centers, layout, cfg))
    return [soft_grad_c_rows(x[:, start:stop], c, cfg.sharpness, gy[:, start:stop])
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
    The one-row case of ``objective_rows``.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.shape:
        raise ValueError("personalized model and global model differ in dimension")
    centers = layout.check_centers(centers, loss.dim)
    ev = objective_rows(stack_losses([loss]), x[None], _one_row(centers), layout, w[None],
                        cfg, lam, lambda_p)
    return ObjectiveEval(**{part: float(v[0]) for part, v in vars(ev).items()})


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row gives NaN parts, no warning
def objective_rows(losses, x, centers: list[CenterStack], layout, w, cfg, lam,
                   lambda_p, grads=False):
    """``eval_F_i_grouped`` of every row of x against its row of w: an ObjectiveEval
    of (n,) arrays. Every sum runs along one row, as the one-row call's does.

    With ``grads`` it returns ``(ev, g)``: both loss passes run as ``value_and_grad``,
    and g is the gradient of f(x) + f(Q(x, c)) in x, the loss gradient at x plus
    ``quant_gradient_x_rows`` on the one at ``quantize_rows(x, ...)`` (a finite row's
    soft image is that of x, so its g is exact). A full-batch step starting at x takes
    its x-gradient from it."""
    q, _ = hard_quantize_rows(x, centers, layout)
    dev = np.abs(x - q)
    r = np.zeros(len(x))
    for start, stop in layout.groups:
        r = r + 0.5 * np.sum(dev[:, start:stop], axis=1)
    quant_error = np.sum(dev, axis=1)
    del dev  # freed before the loss passes, which hold up to three (n, dim) arrays
    pen = 0.5 * lambda_p * np.sum((x - w) ** 2, axis=1) if lambda_p != 0.0 else np.zeros(len(x))
    finite = np.isfinite(quant_error)
    if not cfg.hard_limit:  # a non-finite row is soft-quantized at 0, its f(Q) dropped
        q = quantize_rows(np.where(finite[:, None], x, 0.0), centers, layout, cfg)
    if grads:
        (f_x, g), (f_q, g_q) = losses.value_and_grad(x), losses.value_and_grad(q)
        g += quant_gradient_x_rows(losses, x, centers, layout, cfg, g_q)
    else:
        f_x, f_q = losses.value(x), losses.value(q)
    f_q = np.where(finite, f_q, np.nan)
    reg = lam * r
    ev = ObjectiveEval(f_x=f_x, f_q=f_q, reg=reg, prox_penalty=pen,
                       total=f_x + f_q + reg + pen, quant_error=quant_error)
    return (ev, g) if grads else ev
