"""Minimal feed-forward function approximation with exact analytic gradients.

Everything a learner needs and nothing more: a two-hidden-layer tanh
network stored as one flat parameter vector, an Adam-style optimizer,
masked-softmax policy heads, and entropy-coefficient schedules. No ML
framework; gradients are hand-derived and checked against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TrainingDiverged

NEG_INF = -np.inf


class Mlp:
    """Fully-connected network: input -> tanh hidden -> tanh hidden -> linear output.

    Parameters live in a single flat float64 vector ``theta``; the per-layer
    weight matrices and bias vectors are writable views into it, so optimizer
    updates on ``theta`` are immediately visible to ``forward``.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator):
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ContractError(f"bad layer sizes {sizes}")
        self.sizes = tuple(int(s) for s in sizes)
        n_params = sum((d_in + 1) * d_out for d_in, d_out in zip(sizes, sizes[1:]))
        self.theta = np.empty(n_params, dtype=np.float64)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for d_in, d_out in zip(sizes, sizes[1:]):
            w = self.theta[offset : offset + d_in * d_out].reshape(d_in, d_out)
            offset += d_in * d_out
            b = self.theta[offset : offset + d_out]
            offset += d_out
            # Scale-preserving init, biases included.
            bound = 1.0 / np.sqrt(d_in)
            w[:] = rng.uniform(-bound, bound, size=w.shape)
            b[:] = rng.uniform(-bound, bound, size=b.shape)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def num_params(self) -> int:
        return self.theta.size

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network on a batch ``x`` of shape (B, d_in)."""
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray, out: list[np.ndarray] | None = None
                       ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass that also returns the activations needed by backward.

        ``out``, if given, holds one preallocated (B, d_out) array per layer
        that receives that layer's output, so a caller can fill slices of
        larger buffers.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ContractError(
                f"input shape {x.shape} does not match input dim {self.sizes[0]}"
            )
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w, out=None if out is None else out[li])
            h += b
            if li != last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> np.ndarray:
        """Gradient of sum_b <dout_b, output_b> w.r.t. theta, as a flat vector.

        ``dout`` carries any loss weighting (e.g. 1/B for batch means); this
        routine only sums over the batch.
        """
        grad = np.empty_like(self.theta)
        offset = self.theta.size
        delta = np.asarray(dout, dtype=np.float64)
        for li in range(len(self.weights) - 1, -1, -1):
            w = self.weights[li]
            h_in, h_out = acts[li], acts[li + 1]
            if li != len(self.weights) - 1:
                delta = delta * (1.0 - h_out * h_out)  # tanh'
            d_out = w.shape[1]
            offset -= d_out
            grad[offset : offset + d_out] = delta.sum(axis=0)
            offset -= w.size
            grad[offset : offset + w.size] = (h_in.T @ delta).ravel()
            if li > 0:
                delta = delta @ w.T
        return grad

    def save(self, path: str) -> None:
        """Checkpoint as a flat array plus a layer-dims header."""
        np.savez(path, sizes=np.asarray(self.sizes), theta=self.theta)

    @classmethod
    def load(cls, path: str) -> "Mlp":
        data = np.load(path)
        net = cls(tuple(int(s) for s in data["sizes"]), np.random.default_rng(0))
        net.theta[:] = data["theta"]
        return net


class Adam:
    """Adaptive-moment optimizer over a flat parameter vector."""

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update ``theta`` in place with one descent step along ``grad``."""
        if not np.all(np.isfinite(grad)):
            raise TrainingDiverged(
                f"non-finite gradient (|grad|_max={np.abs(grad[np.isfinite(grad)]).max(initial=0.0):.3g}, "
                f"nan={int(np.isnan(grad).sum())}, inf={int(np.isinf(grad).sum())})"
            )
        self.t += 1
        self.m += (1.0 - self.beta1) * (grad - self.m)
        self.v += (1.0 - self.beta2) * (grad * grad - self.v)
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged("parameters became non-finite after update")


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Probabilities proportional to exp(logit) over legal actions.

    Actions run along the last axis. Illegal actions get probability exactly
    0. Rows of ``mask`` must have at least one legal action.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    z = np.where(mask, logits, NEG_INF)
    # Action counts are small, so reduce column by column: NumPy's reductions
    # along a short last axis are slow. Adding columns left to right is the
    # order np.sum uses on rows shorter than 8, so results match it exactly.
    actions = range(1, z.shape[-1])
    legal = mask[..., 0].copy()
    top = z[..., 0].copy()
    for a in actions:
        legal |= mask[..., a]
        np.maximum(top, z[..., a], out=top)
    if not legal.all():
        raise ContractError("masked_softmax: some row has no legal action")
    z -= top[..., None]
    np.exp(z, out=z)  # exp(-inf) == 0 exactly
    total = z[..., 0].copy()
    for a in actions:
        total += z[..., a]
    z /= total[..., None]
    return z


def masked_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy per row; zero-probability entries contribute nothing."""
    p = np.atleast_2d(probs)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one action per row (actions along the last axis), one uniform per
    row in C order. Zero-probability actions are never drawn.

    The draw is the number of running sums below the uniform, capped at the
    last action in case rounding leaves the total below it.
    """
    u = rng.random(probs.shape[:-1])
    cdf = probs[..., 0].copy()
    draw = np.zeros(u.shape, dtype=np.int64)
    for a in range(1, probs.shape[-1]):
        draw += cdf < u
        cdf += probs[..., a]
    return draw


def policy_logit_grad(probs: np.ndarray, actions: np.ndarray,
                      weights: np.ndarray, beta: float) -> np.ndarray:
    """d/dlogits of  -weight * log pi(action) - beta * H(pi),  per row.

    Masked actions (probability 0) receive exactly zero gradient, so the
    masked policy stays at zero mass on them.
    """
    p = np.atleast_2d(probs)
    rows = np.arange(p.shape[0])
    taken = p[rows, actions]
    if np.any(taken <= 0.0):
        raise ContractError("taken action has zero probability under the mask")
    g = p * weights[:, None]
    g[rows, actions] -= weights
    if beta != 0.0:
        logp = np.log(np.where(p > 0.0, p, 1.0))
        ent = -(p * logp).sum(axis=1, keepdims=True)
        g += beta * p * (logp + ent)
    return g


def policy_loss(net: Mlp, acts: list[np.ndarray], probs: np.ndarray,
                actions: np.ndarray, weights: np.ndarray,
                beta: float) -> tuple[float, np.ndarray]:
    """Mean of  -weight * log pi(action) - beta * H(pi)  over rows, and its
    gradient w.r.t. the policy network's parameters.

    ``acts`` and ``probs`` are the activations and masked policy of the
    forward pass that chose ``actions``; ``weights`` are constants.
    """
    m = actions.shape[0]
    logp = np.log(probs[np.arange(m), actions])
    loss = float(np.mean(-weights * logp - beta * masked_entropy(probs)))
    upstream = policy_logit_grad(probs, actions, weights, beta) / m
    return loss, net.backward(acts, upstream)


def value_grad(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d/dV of mean squared error against fixed targets, per row."""
    n = values.shape[0]
    return (2.0 / n) * (values - targets)


@dataclass(frozen=True)
class EntropySchedule:
    """Non-increasing entropy-coefficient schedule, bounded below by ``minimum``.

    ``linear``: start - decay * t.
    ``exponential``: geometric interpolation from start to minimum over
    ``steps`` iterations, constant afterwards.
    """

    strategy: str  # "linear" | "exponential"
    start: float
    decay: float = 0.0
    steps: int = 1
    minimum: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("linear", "exponential"):
            raise ContractError(f"unknown entropy strategy {self.strategy!r}")
        if self.minimum > self.start:
            raise ContractError("entropy minimum exceeds start coefficient")

    def coef(self, iteration: int) -> float:
        if iteration < 0:
            raise ContractError("iteration must be non-negative")
        if self.strategy == "linear":
            return max(self.minimum, self.start - self.decay * iteration)
        frac = min(iteration, self.steps) / self.steps
        return max(self.minimum, self.start * (self.minimum / self.start) ** frac)


def entropy_coef(schedule: EntropySchedule, iteration: int) -> float:
    return schedule.coef(iteration)
