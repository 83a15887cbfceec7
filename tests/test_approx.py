"""Gradient and policy-head checks for the function approximator."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediated_rl.approx import (Adam, EntropySchedule, Mlp, masked_softmax,
                                policy_loss, sample_categorical, value_loss)
from mediated_rl.errors import ContractError, TrainingDiverged


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Forward


def test_forward_zero_params_gives_zero():
    net = Mlp((3, 4, 4, 2), rng_for(0))
    net.theta[:] = 0.0
    out = net.forward(np.ones((1, 5, 3)))
    assert np.all(out == 0.0)


def test_forward_tanh_of_zero_input_is_bias_path():
    net = Mlp((1, 1, 1, 1), rng_for(1))
    net.theta[:] = 0.0
    net.weights[0][:] = 1.0
    net.weights[1][:] = 1.0
    net.weights[2][:] = 1.0
    assert net.forward(np.zeros((1, 1, 1)))[0, 0, 0] == 0.0


def test_forward_matches_straight_line_reference():
    net = Mlp((4, 8, 8, 3), rng_for(42))
    x = rng_for(7).normal(size=(6, 4))
    w1, w2, w3 = (w[0] for w in net.weights)
    b1, b2, b3 = (b[0] for b in net.biases)
    expected = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2) @ w3 + b3
    np.testing.assert_allclose(net.forward(x[None])[0], expected, rtol=0, atol=0)


def test_forward_rejects_bad_input_dim():
    net = Mlp((4, 8, 8, 3), rng_for(0))
    for shape in ((2, 5), (2, 4), (1, 2, 5), (2, 2, 4)):
        with pytest.raises(ContractError):
            net.forward(np.zeros(shape))


def test_init_scale_within_fan_in_bound():
    net = Mlp((9, 8, 8, 2), rng_for(3))
    assert np.abs(net.weights[0]).max() <= 1.0 / 3.0
    assert np.abs(net.biases[0]).max() <= 1.0 / 3.0


# ---------------------------------------------------------------------------
# Backward vs. finite differences


def numeric_grad(loss_fn, theta, eps=1e-4):
    theta = theta.reshape(-1)  # a view: steps move the network's parameters
    grad = np.empty_like(theta)
    for j in range(theta.size):
        theta[j] += eps
        up = loss_fn()
        theta[j] -= 2 * eps
        down = loss_fn()
        theta[j] += eps
        grad[j] = (up - down) / (2 * eps)
    return grad


def relative_error(a, b):
    scale = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return np.abs(a - b) / scale


def entropy(probs):
    """Shannon entropy along the last axis; zero probabilities add nothing."""
    return -(probs * np.log(np.where(probs > 0.0, probs, 1.0))).sum(axis=-1)


# The logit gradient itself: a stand-in network whose backward pass returns
# its upstream gradient.
IDENTITY_NET = SimpleNamespace(backward=lambda acts, upstream, work: upstream)


@pytest.mark.parametrize("case", [
    *range(100), pytest.param((3, 5, 4, 2), id="3-5-4-2"),
    pytest.param((2, 6, 5, 4, 1), id="2-6-5-4-1")])
def test_value_head_gradient_matches_finite_differences(case):
    # An integer case draws a (d_in, 5, 5, n_out) net; a tuple names the
    # layer sizes of a net with unequal hidden widths.
    if isinstance(case, tuple):
        rng, sizes = rng_for(len(case)), case
    else:
        rng = rng_for(1000 + case)
        sizes = (int(rng.integers(1, 5)), 5, 5, int(rng.integers(1, 4)))
    d_in, n_out = sizes[0], sizes[-1]
    net = Mlp(sizes, rng)
    x = rng.normal(size=(1, 4, d_in))
    targets = rng.normal(size=(1, 4, n_out))

    def loss():
        return np.mean(((net.forward(x) - targets) ** 2).sum(axis=-1))

    values, cache = net.forward_cached(x)
    (value,), upstream = value_loss(targets - values, np.ones((1, 4), dtype=bool))
    assert value == pytest.approx(loss(), rel=1e-12)
    analytic = net.backward(cache, upstream)
    numeric = numeric_grad(loss, net.theta)
    assert relative_error(analytic[0], numeric).max() < 1e-4


@pytest.mark.parametrize("case", range(100))
def test_policy_head_gradient_matches_finite_differences(case):
    rng = rng_for(2000 + case)
    d_in = int(rng.integers(1, 5))
    n_act = int(rng.integers(2, 5))
    net = Mlp((d_in, 5, 5, n_act), rng)
    x = rng.normal(size=(1, 3, d_in))
    mask = np.ones((3, n_act), dtype=bool)
    mask[0, rng.integers(0, n_act)] = False
    weights = rng.normal(size=3)
    beta = float(rng.uniform(0, 0.5))
    actions = np.array([int(rng.choice(np.flatnonzero(mask[b])))
                        for b in range(3)])

    def loss():
        probs = masked_softmax(net.forward(x)[0], mask)
        logp = np.log(probs[np.arange(3), actions])
        return float(np.mean(-weights * logp - beta * entropy(probs)))

    logits, cache = net.forward_cached(x)
    (value,), analytic = policy_loss(
        net, cache, masked_softmax(logits, mask), actions[None], weights[None],
        beta, np.ones((1, 3), dtype=bool))
    assert value == pytest.approx(loss(), rel=1e-12)
    numeric = numeric_grad(loss, net.theta)
    assert relative_error(analytic[0], numeric).max() < 1e-4


def test_constant_loss_gives_zero_gradient():
    net = Mlp((2, 4, 4, 1), rng_for(9))
    x = rng_for(10).normal(size=(1, 5, 2))
    _, cache = net.forward_cached(x)
    grad = net.backward(cache, np.zeros((1, 5, 1)))
    assert np.all(grad == 0.0)


def test_linear_net_squared_loss_matches_closed_form():
    # With tanh bypassed by zeroed hidden weights the net is affine; compare
    # against the least-squares gradient of the equivalent linear model.
    rng = rng_for(11)
    net = Mlp((3, 4, 4, 1), rng)
    x = rng.normal(size=(8, 3))
    targets = rng.normal(size=8)
    small = 1e-5  # keep tanh in its linear regime
    for w in net.weights:
        w *= small
    for b in net.biases:
        b[:] = 0.0
    w1, w2, w3 = (w[0] for w in net.weights)
    values, cache = net.forward_cached(x[None])
    residual = values[0, :, 0] - targets
    # Read before backward, which spends the cache.
    h2 = cache[2][0].copy()
    _, upstream = value_loss(targets[None, :, None] - values,
                             np.ones((1, 8), dtype=bool))
    grad = net.backward(cache, upstream)[0]
    # Gradient w.r.t. the last layer weights equals h2^T residual * 2/n.
    expected_w3 = (2.0 / 8) * h2.T @ residual[:, None]
    got_w3 = grad[-(w3.size + 1):-1].reshape(4, 1)
    np.testing.assert_allclose(got_w3, expected_w3, rtol=1e-10)
    # And the input-layer gradient matches the chained linear map to 1st order.
    dv_dx_w = w2 @ w3  # d out / d h1 in linear regime
    expected_w1 = (2.0 / 8) * x.T @ (residual[:, None] * dv_dx_w.T)
    got_w1 = grad[:w1.size].reshape(3, 4)
    np.testing.assert_allclose(got_w1, expected_w1, rtol=1e-4, atol=1e-12)


# ---------------------------------------------------------------------------
# Stacks


def test_stack_equals_each_slice_as_a_stack_of_one():
    # A stack draws its slices as separate networks drawn in turn, and its
    # forward and backward passes equal each slice's own, bit for bit.
    for sizes, rows in (((3, 16, 16, 4), 128), ((1, 8, 8, 1), 7),
                        ((5, 16, 16, 3), 1)):
        stack = Mlp(sizes, rng_for(21), stack=4)
        draws = rng_for(21)
        for s in range(4):
            np.testing.assert_array_equal(Mlp(sizes, draws).theta[0],
                                          stack.theta[s])
        rng = rng_for(22)
        x = rng.normal(size=(4, rows, sizes[0]))
        dout = rng.normal(size=(4, rows, sizes[-1]))
        out, cache = stack.forward_cached(x)
        grad = stack.backward(cache, dout)
        for s in range(4):
            alone = Mlp(sizes)
            alone.theta[:] = stack.theta[s]
            out_s, cache_s = alone.forward_cached(x[s:s + 1])
            np.testing.assert_array_equal(out_s[0], out[s])
            np.testing.assert_array_equal(
                alone.backward(cache_s, dout[s:s + 1])[0], grad[s])


def test_bound_stack_reads_and_trains_the_callers_array():
    # ``bind`` moves the parameters into a column block of a wider array:
    # the views follow it, and a backward pass reads the same weights.
    sizes = (3, 8, 8, 2)
    net = Mlp(sizes, rng_for(23), stack=2)
    outer = np.zeros((2, net.theta.shape[1] + 5))
    outer[:, 5:] = net.theta
    x = rng_for(24).normal(size=(2, 4, 3))
    out, cache = net.forward_cached(x)
    grad = net.backward(cache, np.ones_like(out))
    net.bind(outer[:, 5:])
    assert all(np.shares_memory(p, outer) for p in net.weights + net.biases)
    bound_out, bound_cache = net.forward_cached(x)
    np.testing.assert_array_equal(bound_out, out)
    np.testing.assert_array_equal(net.backward(bound_cache, np.ones_like(out)),
                                  grad)
    outer[:, 5:] = 0.0
    assert not net.forward(x).any()


@pytest.mark.parametrize("head", ["value", "policy"])
def test_zero_weight_rows_match_the_gradient_over_weighted_rows(head):
    # Each slice's loss is its mean over the rows ``keep`` flags; rows
    # weighted 0 change neither the loss nor its finite-difference gradient.
    rng = rng_for(31)
    n_out = 1 if head == "value" else 3
    net = Mlp((2, 5, 5, n_out), rng, stack=2)
    x = rng.normal(size=(2, 6, 2))
    keep = np.array([[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 1]], dtype=bool)
    targets = rng.normal(size=(2, 6))
    mask = rng.random((6, n_out)) < 0.7
    mask[:, 0] = True
    actions = np.array([[int(rng.choice(np.flatnonzero(mask[b])))
                         for b in range(6)] for _ in range(2)])

    def per_row(out):
        if head == "value":
            return (out[..., 0] - targets) ** 2
        probs = masked_softmax(out, mask)
        logp = np.log(np.take_along_axis(probs, actions[..., None], -1)[..., 0])
        return -targets * logp - 0.3 * entropy(probs)

    def loss():
        rows = per_row(net.forward(x))
        return sum(rows[s, keep[s]].mean() for s in range(2))

    out, cache = net.forward_cached(x)
    if head == "value":
        losses, upstream = value_loss(targets[..., None] - out, keep)
        analytic = net.backward(cache, upstream)
    else:
        losses, analytic = policy_loss(net, cache, masked_softmax(out, mask),
                                       actions, targets, 0.3, keep)
    assert losses.sum() == pytest.approx(loss(), abs=1e-12)
    numeric = numeric_grad(loss, net.theta)
    assert relative_error(analytic.ravel(), numeric).max() < 1e-4


def strided_sum_backward(net, acts, dout):
    """``Mlp.backward`` with every bias gradient a ``delta.sum(axis=1)``:
    the reference the backward pass must equal bit for bit."""
    grad = np.empty_like(net.theta)
    offset = net.theta.shape[1]
    delta = np.asarray(dout, dtype=np.float64)
    for li in range(len(net.weights) - 1, -1, -1):
        w = net.weights[li]
        h_in, h_out = acts[li], acts[li + 1]
        if li != len(net.weights) - 1:
            np.multiply(h_out, h_out, out=h_out)
            np.subtract(1.0, h_out, out=h_out)
            h_out *= delta
            delta = h_out
        size = w[0].size
        offset -= w.shape[2]
        grad[:, offset : offset + w.shape[2]] = delta.sum(axis=1)
        offset -= size
        grad[:, offset : offset + size] = np.matmul(
            h_in.swapaxes(1, 2), delta).reshape(len(w), size)
        if li > 0:
            delta = np.matmul(delta, w.swapaxes(1, 2))
    return grad


@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_backward_equals_the_strided_sum_reference(n_out):
    # A one-column bias gradient is summed pairwise, a wider one row by row
    # in order; neither may move a bit, at equal or unequal hidden widths,
    # and dout stays as it was. Nor may the array delta·Wᵀ is written into:
    # none, one held as a learner holds it (replaced when the stack or the
    # row count changes, and reused with the last call's values in it), or
    # the largest so far, whose leading elements each layer's width takes.
    for sizes in ((4, 16, 16, n_out), (3, 5, 4, n_out)):
        widest = max(sizes[1:-1])
        held = largest = np.empty((0, 0, widest))
        for stack, rows in itertools.product((16, 3, 1), (1280, 7, 128, 1)):
            net = Mlp(sizes, rng_for(51), stack=stack)
            rng = rng_for(52)
            x = rng.normal(size=(stack, rows, sizes[0]))
            dout = rng.normal(size=(stack, rows, n_out))
            given = dout.copy()
            expected = strided_sum_backward(net, net.forward_cached(x)[1], dout)
            if held.shape != (stack, rows, widest):
                held = np.full((stack, rows, widest), np.nan)
            largest = max(largest, held, key=np.size)
            for work in (None, held, held, largest):
                grad = net.backward(net.forward_cached(x)[1], dout, work)
                np.testing.assert_array_equal(dout, given)
                assert grad.tobytes() == expected.tobytes(), (sizes, stack, rows)


def test_backward_spends_its_cache():
    # tanh'·delta overwrites the hidden activations, so a forward cache
    # serves one backward pass; its input and output are left as they were.
    net = Mlp((2, 4, 4, 1), rng_for(41), stack=2)
    x = rng_for(42).normal(size=(2, 5, 2))
    dout = rng_for(43).normal(size=(2, 5, 1))
    _, cache = net.forward_cached(x)
    before = [layer.copy() for layer in cache]
    first = net.backward(cache, dout)
    np.testing.assert_array_equal(cache[0], before[0])
    np.testing.assert_array_equal(cache[-1], before[-1])
    for spent, fresh in zip(cache[1:-1], before[1:-1]):
        assert not np.array_equal(spent, fresh)
    assert not np.array_equal(net.backward(cache, dout), first)


# ---------------------------------------------------------------------------
# Masked softmax


def test_masked_softmax_uniform():
    probs = masked_softmax(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(probs, [[1 / 3, 1 / 3, 1 / 3]])


def test_masked_softmax_two_equal_logits():
    probs = masked_softmax(np.array([[1.0, 1.0]]), np.ones((1, 2), dtype=bool))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])


def test_masked_softmax_renormalizes_over_legal():
    logits = np.array([[5.0, 1.0, 2.0]])
    mask = np.array([[False, True, True]])
    probs = masked_softmax(logits, mask)
    assert probs[0, 0] == 0.0
    expected = np.exp([1.0, 2.0])
    expected = expected / expected.sum()
    np.testing.assert_allclose(probs[0, 1:], expected, atol=1e-12)
    assert abs(probs.sum() - 1.0) < 1e-6


def test_masked_softmax_exact_zero_on_masked():
    rng = rng_for(12)
    logits = rng.normal(size=(50, 4)) * 10
    mask = rng.random((50, 4)) < 0.7
    mask[~mask.any(axis=1), 0] = True
    probs = masked_softmax(logits, mask)
    assert np.all(probs[~mask] == 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_masked_softmax_shift_invariance():
    rng = rng_for(13)
    logits = rng.normal(size=(20, 5))
    mask = rng.random((20, 5)) < 0.8
    mask[~mask.any(axis=1), 0] = True
    base = masked_softmax(logits, mask)
    shifted = masked_softmax(logits + 123.456, mask)
    np.testing.assert_allclose(base, shifted, atol=1e-8)


def test_masked_softmax_all_masked_raises():
    with pytest.raises(ContractError):
        masked_softmax(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))


def test_masked_actions_never_sampled():
    rng = rng_for(14)
    logits = np.array([[0.0, 50.0, 0.2]])
    mask = np.array([[True, False, True]])
    probs = masked_softmax(np.repeat(logits, 1000, axis=0),
                           np.repeat(mask, 1000, axis=0))
    draws = sample_categorical(probs, rng)
    assert not np.any(draws == 1)


@pytest.mark.parametrize("row,u", [
    # A committed agent's policy, and the lowest uniform.
    ([0.0, 0.0, 1.0], 0.0),
    # A padded row whose total rounds below the highest uniform.
    ([0.25, 0.75 - 2.0 ** -52, 0.0], 1.0 - 2.0 ** -53),
], ids=["zero-uniform", "total-below-uniform"])
def test_zero_probability_columns_never_drawn(row, u):
    stub = SimpleNamespace(random=lambda shape: np.full(shape, u))
    draw = sample_categorical(np.array([row]), stub)[0]
    assert row[draw] > 0.0


def test_policy_loss_zero_weight_zero_beta_is_zero():
    probs = masked_softmax(np.array([[[0.3, 0.2, -1.0]]]),
                           np.ones((1, 1, 3), dtype=bool))
    losses, grad = policy_loss(IDENTITY_NET, [], probs, np.array([[1]]),
                               np.zeros((1, 1)), 0.0, np.ones((1, 1), dtype=bool))
    np.testing.assert_array_equal(losses, [0.0])
    np.testing.assert_array_equal(grad, np.zeros((1, 1, 3)))


def test_policy_loss_masked_actions_get_no_entropy_and_zero_gradient():
    mask = np.array([[[True, False, True], [False, True, True]]])
    probs = masked_softmax(rng_for(15).normal(size=(1, 2, 3)), mask)
    losses, grad = policy_loss(IDENTITY_NET, [], probs, np.array([[0, 2]]),
                               np.array([[0.7, -1.3]]), 0.4,
                               np.ones((1, 2), dtype=bool))
    assert np.all(grad[~mask] == 0.0) and np.all(grad[mask] != 0.0)
    legal = [probs[0, 0, [0, 2]], probs[0, 1, 1:]]
    expected = [-w * np.log(p[a]) + 0.4 * (p * np.log(p)).sum()
                for w, p, a in zip((0.7, -1.3), legal, (0, 1))]
    assert losses[0] == pytest.approx(np.mean(expected), rel=1e-12)


def one_record_per_row_loss(net, acts, probs, actions, weights, beta, keep,
                            work=None):
    """``policy_loss`` with one record per activation row, written out: the
    formula that the identity index, and no index, must give bit for bit."""
    probs = np.broadcast_to(probs, keep.shape + probs.shape[-1:])
    p = probs.reshape(-1, probs.shape[-1])
    rows, taken, w = np.arange(len(p)), actions.ravel(), weights.ravel()
    logp = np.log(np.where(p > 0.0, p, 1.0))
    entropy = -(p * logp).sum(axis=1)
    per_row = (-w * logp[rows, taken] - beta * entropy).reshape(keep.shape)
    counts = keep.sum(axis=-1)
    losses = (per_row * keep).sum(axis=-1) / counts
    g = p * w[:, None]
    g[rows, taken] -= w
    if beta != 0.0:
        g += beta * p * (logp + entropy[:, None])
    upstream = g.reshape(probs.shape) * keep[..., None]
    upstream /= counts[:, None, None]
    return losses, net.backward(acts, upstream, work)


def indexed_records(seed, stack, records, rows, shared):
    """A stacked policy net, inputs (stack, rows, 2), legal-action masks, and
    records that index the rows: one index for every slice when ``shared``.
    Some records are not kept, but each slice keeps its first."""
    rng = rng_for(seed)
    net = Mlp((2, 5, 4, 3), rng, stack=stack)
    x = rng.normal(size=(stack, rows, 2))
    mask = rng.random((stack, rows, 3)) < 0.6
    mask[..., 1] = True
    index = rng.integers(0, rows, size=records if shared else (stack, records))
    keep = rng.random((stack, records)) < 0.7
    keep[:, 0] = True
    record_mask = np.take_along_axis(
        mask, np.broadcast_to(index, keep.shape)[..., None], axis=1)
    actions = np.argmax(record_mask * rng.random(record_mask.shape), axis=-1)
    weights = rng.normal(size=(stack, records))
    return net, x, mask, index, keep, record_mask, actions, weights


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), stack=st.integers(1, 3),
       records=st.integers(1, 12), rows=st.integers(1, 6),
       shared=st.booleans(), beta=st.sampled_from([0.0, 0.3]))
def test_policy_loss_sums_records_onto_their_rows(seed, stack, records, rows,
                                                  shared, beta):
    # Records (S, M) that index activation rows (S, U), some rows named by
    # no kept record, give the loss and gradient of the same records on
    # their own tiled rows.
    net, x, mask, index, keep, record_mask, actions, weights = \
        indexed_records(seed, stack, records, rows, shared)
    logits, cache = net.forward_cached(x)
    losses, grad = policy_loss(net, cache, masked_softmax(logits, mask),
                               actions, weights, beta, keep, index)
    tiled = np.take_along_axis(x, np.broadcast_to(index, keep.shape)[..., None],
                               axis=1)
    logits, cache = net.forward_cached(tiled)
    expected = policy_loss(net, cache, masked_softmax(logits, record_mask),
                           actions, weights, beta, keep)
    np.testing.assert_allclose(losses, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad, expected[1], rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), stack=st.integers(1, 3),
       records=st.integers(1, 12), shared=st.booleans(),
       beta=st.sampled_from([0.0, 0.3]))
def test_policy_loss_identity_index_is_one_record_per_row(seed, stack, records,
                                                          shared, beta):
    # Record m on row m, and no index at all, both give the one-record-per-
    # row formula bit for bit.
    net, x, mask, _, keep, _, actions, weights = \
        indexed_records(seed, stack, records, records, shared)
    identity = np.arange(records)
    if not shared:
        identity = np.tile(identity, (stack, 1))
    logits, _ = net.forward_cached(x)
    probs = masked_softmax(logits, mask)
    actions = np.argmax(mask * rng_for(seed).random(mask.shape), axis=-1)
    expected = one_record_per_row_loss(net, net.forward_cached(x)[1], probs,
                                       actions, weights, beta, keep)
    for index in (identity, None):
        losses, grad = policy_loss(net, net.forward_cached(x)[1], probs,
                                   actions, weights, beta, keep, index)
        np.testing.assert_array_equal(losses, expected[0])
        np.testing.assert_array_equal(grad, expected[1])


def test_policy_loss_rejects_masked_action():
    probs = masked_softmax(np.array([[[0.0, 1.0]]]),
                           np.array([[[True, False]]]))
    with pytest.raises(ContractError):
        policy_loss(IDENTITY_NET, [], probs, np.array([[1]]), np.ones((1, 1)),
                    0.0, np.ones((1, 1), dtype=bool))


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_zero_gradient_keeps_params():
    opt = Adam(4, lr=0.1)
    theta = np.ones(4)
    opt.step(theta, np.zeros(4))
    np.testing.assert_array_equal(theta, np.ones(4))
    assert opt.t == 1


def test_adam_first_step_moves_against_gradient_sign():
    opt = Adam(2, lr=0.01)
    theta = np.zeros(2)
    opt.step(theta, np.array([3.0, -7.0]))
    assert theta[0] < 0 < theta[1]


def test_adam_update_magnitude_approaches_learning_rate():
    opt = Adam(1, lr=0.05)
    theta = np.zeros(1)
    prev = theta.copy()
    for _ in range(200):
        prev = theta.copy()
        opt.step(theta, np.array([2.5]))
    assert abs((prev - theta)[0] - 0.05) < 0.05 * 0.02


def test_per_parameter_rate_equals_one_adam_per_block():
    # One step over a concatenation with a rate per parameter is each
    # block's own scalar-rate step, bit for bit, step after step.
    rng = rng_for(31)
    sizes, rates = (5, 3), (1e-2, 3e-3)
    theta = rng.normal(size=sum(sizes))
    joint = Adam(theta.size, np.repeat(rates, sizes))
    blocks = [Adam(size, rate) for size, rate in zip(sizes, rates)]
    parts = np.split(theta.copy(), [sizes[0]])
    for _ in range(6):
        grad = rng.normal(size=theta.size)
        joint.step(theta, grad)
        for opt, part, g in zip(blocks, parts, np.split(grad, [sizes[0]])):
            opt.step(part, g)
        for got, opts in ((theta, parts), (joint.m, [o.m for o in blocks]),
                          (joint.v, [o.v for o in blocks])):
            assert got.tobytes() == np.concatenate(opts).tobytes()
        assert joint.t == blocks[0].t == blocks[1].t
    assert joint.t == 6


def test_adam_rejects_non_finite_gradient():
    opt = Adam(2, lr=0.1)
    with pytest.raises(TrainingDiverged):
        opt.step(np.zeros(2), np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# Entropy schedules


def test_linear_schedule_table_values():
    sched = EntropySchedule("linear", start=1.0, decay=0.0005, minimum=0.001)
    assert sched.coef(0) == 1.0
    assert sched.coef(2000) == 0.001


def test_exponential_schedule_endpoint():
    sched = EntropySchedule("exponential", start=0.5, steps=20000, minimum=0.01)
    assert sched.coef(0) == pytest.approx(0.5)
    assert sched.coef(20000) == pytest.approx(0.01)
    assert sched.coef(50000) == pytest.approx(0.01)


def test_exponential_schedule_needs_positive_minimum():
    # A geometric path to 0 is 0 from the first step on: (0 / start) ** frac.
    with pytest.raises(ContractError, match="needs minimum > 0"):
        EntropySchedule("exponential", start=0.5, steps=20000, minimum=0.0)


@pytest.mark.parametrize("steps", [2.5, True])
def test_entropy_steps_must_be_an_integer(steps):
    with pytest.raises(ContractError, match="steps must be an integer"):
        EntropySchedule("exponential", start=0.5, steps=steps, minimum=0.01)


@pytest.mark.parametrize("value", [True, "0.5", None, 0.5j])
@pytest.mark.parametrize("field", ["start", "decay", "minimum"])
def test_entropy_coefficients_must_be_real_numbers(field, value):
    # A bool used to pass; a string, None or a complex number ended in a
    # bare TypeError.
    args = {"start": 0.5, "decay": 0.0, "minimum": 0.0, field: value}
    with pytest.raises(ContractError, match="finite real numbers"):
        EntropySchedule("linear", **args)


@settings(max_examples=50, deadline=None)
@given(
    strategy=st.sampled_from(["linear", "exponential"]),
    start=st.floats(0.01, 2.0),
    minimum=st.floats(0.0005, 0.009),
    t1=st.integers(0, 30000),
    t2=st.integers(0, 30000),
)
def test_schedules_monotone_and_bounded(strategy, start, minimum, t1, t2):
    sched = EntropySchedule(strategy, start=start, decay=1e-4, steps=10000,
                            minimum=minimum)
    lo, hi = sorted((t1, t2))
    a, b = sched.coef(lo), sched.coef(hi)
    assert a >= b >= minimum
    assert a <= start
