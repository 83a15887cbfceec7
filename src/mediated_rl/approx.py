"""Minimal feed-forward function approximation with exact analytic gradients.

Everything a learner needs and nothing more: a stack of two-hidden-layer
tanh networks, one parameter row per network, an Adam-style optimizer,
masked-softmax policy heads, the policy and value objectives, and
entropy-coefficient schedules. No ML framework; gradients are hand-derived
and checked against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TrainingDiverged, is_integer, is_real

NEG_INF = -np.inf
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Mlp:
    """A stack of S independent networks of one shape: input -> tanh hidden
    -> tanh hidden -> linear output.

    Parameters live in one float64 array ``theta`` (S, P), a row per network;
    ``weights`` (S, d_in, d_out) and ``biases`` (S, d_out) are writable views
    into it, so optimizer updates on ``theta`` are immediately visible to
    ``forward``. ``bind`` moves them into an array the caller owns. A copy
    or an unpickled network keeps ``theta`` alone and rebuilds the views
    into its own. A layer is one ``np.matmul`` over (S, rows, width), which
    equals each slice's own 2-D product bit for bit. ``backward`` takes an
    upstream gradient with a row per activation row: a caller whose one row
    stands for many sums their gradients onto it first.
    """

    def __init__(self, sizes: tuple[int, ...],
                 rng: np.random.Generator | None = None, stack: int = 1):
        if len(sizes) < 2 or any(s <= 0 for s in sizes) or stack < 1:
            raise ContractError(f"bad layer sizes {sizes} or stack {stack}")
        self.sizes = tuple(int(s) for s in sizes)
        n_params = sum((d_in + 1) * d_out for d_in, d_out in zip(sizes, sizes[1:]))
        self.theta = np.zeros((stack, n_params))
        self._bind()
        for s in range(stack if rng is not None else 0):
            self.draw(s, rng)

    def bind(self, theta: np.ndarray) -> None:
        """Keep the parameters in ``theta`` (S, P), an array the caller owns,
        such as a column block of a wider one; the network takes its values
        as they are."""
        self.theta = theta
        self._bind()

    def _bind(self) -> None:
        """Make ``weights`` and ``biases`` views into ``theta``."""
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for d_in, d_out in zip(self.sizes, self.sizes[1:]):
            w = self.theta[:, offset : offset + d_in * d_out]
            self.weights.append(w.reshape(len(self.theta), d_in, d_out))
            offset += d_in * d_out
            self.biases.append(self.theta[:, offset : offset + d_out])
            offset += d_out

    def __getstate__(self) -> dict:
        """Everything but the views, which ``__setstate__`` rebuilds: a deep
        copy or a pickle of the views would be arrays of their own, which
        optimizer steps on the copy's ``theta`` no longer reach."""
        return {key: value for key, value in vars(self).items()
                if key not in ("weights", "biases")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind()

    def draw(self, s: int, rng: np.random.Generator,
             d_last: int | None = None) -> None:
        """Draw slice ``s`` as a lone network with ``d_last`` outputs (default:
        all) would draw it; output columns past ``d_last`` stay 0."""
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            d_in, d_out = w.shape[1:]
            d_out = d_last if d_last and li == len(self.weights) - 1 else d_out
            bound = 1.0 / np.sqrt(d_in)  # scale-preserving, biases included
            w[s, :, :d_out] = rng.uniform(-bound, bound, size=(d_in, d_out))
            b[s, :d_out] = rng.uniform(-bound, bound, size=d_out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every slice on its rows ``x`` (S, rows, d_in)."""
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray,
                       out: list[np.ndarray] | None = None
                       ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass that also returns the activations needed by backward:
        the input, then each layer's output. Each layer's output is written
        into ``out[layer]`` (S, rows, width) when ``out`` is given."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[::2] != (len(self.theta), self.sizes[0]):
            raise ContractError(f"input shape {x.shape} does not match "
                                f"({len(self.theta)}, rows, {self.sizes[0]})")
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w, out=None if out is None else out[li])
            h += b[:, None]
            if li != last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray,
                 work: np.ndarray | None = None) -> np.ndarray:
        """Gradient (S, P) of each slice's sum over rows of <dout, output>.

        ``dout`` (S, rows, d_out), a row per activation row, carries any loss
        weighting (e.g. 1/B for batch means); this routine only sums over
        rows and leaves ``dout`` as it is. It spends ``acts``: tanh'·delta is
        computed in place in the hidden activations, and each delta·Wᵀ is
        written into the leading elements of ``work``, a C-contiguous float64
        array of at least S·rows·(widest hidden layer) elements, allocated
        here when not given.
        A bias gradient wider than one column is an einsum row sum, which
        adds the rows in ``np.sum``'s order without its layer-wide inner loop
        per row; a one-column delta is contiguous, and ``np.sum`` adds it
        pairwise, so both give ``delta.sum(axis=1)``'s sums exactly.
        """
        grad = np.empty_like(self.theta)
        offset = self.theta.shape[1]
        delta = np.asarray(dout, dtype=np.float64)
        if work is None:
            work = np.empty(delta.shape[:2] + (max(self.sizes[1:-1], default=0),))
        work = work.reshape(-1)
        for li in range(len(self.weights) - 1, -1, -1):
            w = self.weights[li]
            h_in, h_out = acts[li], acts[li + 1]
            if li != len(self.weights) - 1:
                np.multiply(h_out, h_out, out=h_out)
                np.subtract(1.0, h_out, out=h_out)  # tanh'
                h_out *= delta
                delta = h_out
            size = w[0].size
            offset -= w.shape[2]
            grad[:, offset : offset + w.shape[2]] = (
                np.einsum("srd->sd", delta) if w.shape[2] > 1 else delta.sum(axis=1))
            offset -= size
            grad[:, offset : offset + size] = np.matmul(
                h_in.swapaxes(1, 2), delta).reshape(len(w), size)
            if li > 0:
                shape = delta.shape[:2] + w.shape[1:2]
                delta = np.matmul(delta, w.swapaxes(1, 2),
                                  out=work[:math.prod(shape)].reshape(shape))
        return grad


class Adam:
    """Adaptive-moment optimizer, elementwise over a parameter array.

    ``lr`` is one learning rate for every parameter, or an array of one per
    parameter: elementwise, a step over a concatenation with each block's
    rate is the blocks' own steps, bit for bit, while they step together.
    """

    def __init__(self, shape: int | tuple[int, ...], lr: float | np.ndarray):
        self.lr = lr if isinstance(lr, np.ndarray) else float(lr)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update ``theta`` in place with one descent step along ``grad``."""
        if not np.isfinite(grad).all():
            raise TrainingDiverged(
                f"non-finite gradient (|grad|_max="
                f"{np.abs(grad[np.isfinite(grad)]).max(initial=0.0):.3g}, "
                f"nan={int(np.isnan(grad).sum())}, inf={int(np.isinf(grad).sum())})"
            )
        self.t += 1
        self.m += (1.0 - BETA1) * (grad - self.m)
        self.v += (1.0 - BETA2) * (grad * grad - self.v)
        m_hat = self.m / (1.0 - BETA1 ** self.t)
        v_hat = self.v / (1.0 - BETA2 ** self.t)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
        if not np.isfinite(theta).all():
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


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one action per row (actions along the last axis), one uniform u
    per row in C order. Zero-probability actions, such as padding and
    masked actions, are never drawn.

    The draw counts the running sums at or below u, so it passes over zero
    columns; only sums short of the total count, so when rounding leaves
    the total at or below u the draw stops at the column that reaches it.
    """
    u = rng.random(probs.shape[:-1])
    sums = [probs[..., 0]]
    for a in range(1, probs.shape[-1]):
        sums.append(sums[-1] + probs[..., a])
    total = sums.pop()
    draw = np.zeros(u.shape, dtype=np.int64)
    for running in sums:
        draw += (running <= u) & (running < total)
    return draw


def policy_loss(net: Mlp, acts: list[np.ndarray], probs: np.ndarray,
                actions: np.ndarray, weights: np.ndarray, beta: float,
                keep: np.ndarray, rows: np.ndarray | None = None,
                work: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per slice, the mean of  -weight * log pi(action) - beta * H(pi)  over
    the records ``keep`` (S, M) flags, and its gradient (S, P) w.r.t. the
    policy network's parameters; other records carry no gradient.

    ``acts`` (spent) and ``probs`` (S, U, A) are the activations and masked
    policy of the forward pass that chose ``actions``. Record m of slice s
    was taken on row ``rows[s, m]`` (or ``rows[m]`` for every slice) of
    that pass, and on row m when ``rows`` is None. Each row's logit gradient
    sums its kept records': p·Σw minus w scattered onto the taken actions,
    plus beta·K·p·(log p + H) for its K kept records; a row no kept record
    names gets none. ``weights`` are constants; ``work`` goes to
    ``Mlp.backward``. Masked actions (probability 0) add no entropy and get
    exactly zero gradient; a taken action must have positive probability.
    """
    p = probs.reshape(-1, probs.shape[-1])
    if rows is None:
        rows = np.arange(keep.shape[-1])
    records = (np.arange(len(keep))[:, None] * probs.shape[1] + rows).ravel()
    taken, w = actions.ravel(), weights.ravel()
    if (p[records, taken] <= 0.0).any():
        raise ContractError("taken action has zero probability under the mask")
    logp = np.log(np.where(p > 0.0, p, 1.0))
    entropy = -(p * logp).sum(axis=1)
    per_record = (-w * logp[records, taken]
                  - beta * entropy[records]).reshape(keep.shape)
    counts = keep.sum(axis=-1)
    losses = (per_record * keep).sum(axis=-1) / counts
    w = w * keep.ravel()  # d/dlogits; unkept records add nothing
    g = p * np.bincount(records, w, len(p))[:, None]
    g -= np.bincount(records * p.shape[1] + taken, w, p.size).reshape(p.shape)
    if beta != 0.0:
        kept = np.bincount(records, keep.ravel(), len(p))[:, None]
        g += beta * kept * p * (logp + entropy[:, None])
    upstream = g.reshape(probs.shape)
    upstream /= counts[:, None, None]
    return losses, net.backward(acts, upstream, work)


def value_loss(residuals: np.ndarray, keep: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per slice, the mean over the rows ``keep`` (S, M) flags of the squared
    TD residuals (S, M, outputs) summed over outputs, and its gradient
    (S, M, outputs) w.r.t. the values; other rows carry no gradient.

    A residual is target - value, with the target held constant.
    """
    counts = keep.sum(axis=-1)
    losses = ((residuals ** 2).sum(axis=-1) * keep).sum(axis=-1) / counts
    return losses, (-2.0 / counts)[:, None, None] * residuals * keep[..., None]


@dataclass(frozen=True)
class EntropySchedule:
    """Non-increasing entropy-coefficient schedule, bounded below by ``minimum``.

    ``linear``: start - decay * t.
    ``exponential``: geometric interpolation from start to minimum over
    ``steps`` iterations, constant afterwards; it needs minimum > 0, since
    a geometric path cannot reach 0.
    """

    strategy: str  # "linear" | "exponential"
    start: float
    decay: float = 0.0
    steps: int = 1
    minimum: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("linear", "exponential"):
            raise ContractError(f"unknown entropy strategy {self.strategy!r}")
        if not all(is_real(v) and np.isfinite(v) and v >= 0.0
                   for v in (self.start, self.minimum, self.decay)):
            raise ContractError("entropy start, minimum and decay must be "
                                "finite real numbers >= 0")
        if self.minimum > self.start:
            raise ContractError("entropy minimum exceeds start coefficient")
        if not is_integer(self.steps) or self.steps < 1:
            raise ContractError(f"entropy steps must be an integer >= 1, "
                                f"got {self.steps!r}")
        if self.strategy == "exponential" and not self.minimum > 0.0:
            raise ContractError("an exponential entropy schedule needs minimum > 0")

    def coef(self, iteration: int) -> float:
        if iteration < 0:
            raise ContractError("iteration must be non-negative")
        if self.strategy == "linear":
            return max(self.minimum, self.start - self.decay * iteration)
        frac = min(iteration, self.steps) / self.steps
        return max(self.minimum, self.start * (self.minimum / self.start) ** frac)

