import numpy as np
import pytest

from slrl.data import MultiViewDataset
from slrl.encoder import (
    DecoderParams,
    decode,
    init_decoders,
    init_latent,
    per_sample_reconstruction,
    reconstruction_grads,
    reconstruction_loss,
)
from slrl.errors import NumericError, ParameterError, ShapeError
from slrl.numerics import finite_diff_grad, make_rng, relative_error

from oracles import decode_oracle, reconstruction_grads_reference, reconstruction_oracle


def small_problem(seed=0, n=6, f=4, dims=(3, 5)):
    rng = make_rng(seed)
    h = rng.normal(size=(n, f))  # off the tiny ball init_latent draws from
    params = init_decoders(f, list(dims), seed + 1)
    ds = MultiViewDataset(views=[rng.normal(size=(n, d)) for d in dims])
    return h, params, ds


def test_init_latent_deterministic():
    a = init_latent(5, 8, seed=42)
    b = init_latent(5, 8, seed=42)
    assert np.array_equal(a, b)


def test_init_latent_shape():
    assert init_latent(3, 64, seed=0).shape == (3, 64)


def test_init_latent_range():
    h = init_latent(50, 16, seed=1)
    assert np.all(h >= -0.05) and np.all(h <= 0.05)


def test_init_latent_validation():
    with pytest.raises(ParameterError):
        init_latent(0, 4, seed=0)
    with pytest.raises(ParameterError):
        init_latent(4, 1, seed=0)


def test_decode_zero_params_zero_output():
    theta = DecoderParams(w1=np.zeros((8, 4)), b1=np.zeros(8), w2=np.zeros((3, 8)), b2=np.zeros(3))
    out = decode(theta, make_rng(0).normal(size=(5, 4)))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_decode_identity_configuration_reproduces_input():
    # relu(x) - relu(-x) = x, assembled from a stacked [I; -I] hidden layer
    f = 4
    theta = DecoderParams(
        w1=np.vstack([np.eye(f), -np.eye(f)]),
        b1=np.zeros(2 * f),
        w2=np.hstack([np.eye(f), -np.eye(f)]),
        b2=np.zeros(f),
    )
    h = make_rng(1).normal(size=(6, f))
    assert np.max(np.abs(decode(theta, h) - h)) < 1e-12


def test_decode_matches_layerwise_oracle():
    h, params, _ = small_problem(seed=3)
    theta = params[0]
    got = decode(theta, h)
    want = decode_oracle(theta.w1, theta.b1, theta.w2, theta.b2, h)
    assert np.max(np.abs(got - want)) < 1e-9


def test_reconstruction_loss_zero_at_perfect_fit():
    h, params, _ = small_problem(seed=4)
    views = [decode(theta, h) for theta in params]
    ds = MultiViewDataset(views=views)
    assert reconstruction_loss(h, params, ds) == 0.0


def test_reconstruction_loss_zero_decoder_analytic():
    # zero decoder output, one view with sum ||x_n||^2 = 5N gives loss 5
    n, f = 4, 3
    h = init_latent(n, f, seed=0)
    theta = DecoderParams(w1=np.zeros((6, f)), b1=np.zeros(6), w2=np.zeros((2, 6)), b2=np.zeros(2))
    x = np.zeros((n, 2))
    x[:, 0] = np.sqrt(5.0)
    ds = MultiViewDataset(views=[x])
    assert reconstruction_loss(h, [theta], ds) == pytest.approx(5.0, abs=1e-12)


def test_reconstruction_loss_matches_direct_oracle():
    h, params, ds = small_problem(seed=5)
    decoded = [decode(theta, h) for theta in params]
    want = reconstruction_oracle(decoded, ds.views)
    assert reconstruction_loss(h, params, ds) == pytest.approx(want, rel=1e-12)


def test_reconstruction_loss_nonnegative():
    for seed in range(5):
        h, params, ds = small_problem(seed=seed)
        assert reconstruction_loss(h, params, ds) >= 0.0


def test_grads_zero_at_perfect_fit():
    h, params, _ = small_problem(seed=6)
    ds = MultiViewDataset(views=[decode(theta, h) for theta in params])
    grad_h, grads = reconstruction_grads(h, params, ds)
    assert np.max(np.abs(grad_h)) == 0.0
    for g in grads:
        assert max(np.abs(g.w1).max(), np.abs(g.w2).max()) == 0.0


def test_grads_match_finite_differences():
    h, params, ds = small_problem(seed=7)
    grad_h, grads = reconstruction_grads(h, params, ds)

    def loss_of_h(vec):
        return reconstruction_loss(vec.reshape(h.shape), params, ds)

    num = finite_diff_grad(loss_of_h, h.ravel(), eps=1e-5)
    assert relative_error(grad_h.ravel(), num) < 1e-4

    theta = params[0]
    packed = np.concatenate([theta.w1.ravel(), theta.b1, theta.w2.ravel(), theta.b2])

    def loss_of_theta(vec):
        pos = 0
        w1 = vec[pos : pos + theta.w1.size].reshape(theta.w1.shape)
        pos += theta.w1.size
        b1 = vec[pos : pos + theta.b1.size]
        pos += theta.b1.size
        w2 = vec[pos : pos + theta.w2.size].reshape(theta.w2.shape)
        pos += theta.w2.size
        b2 = vec[pos : pos + theta.b2.size]
        new = [DecoderParams(w1, b1, w2, b2)] + list(params[1:])
        return reconstruction_loss(h, new, ds)

    analytic = np.concatenate(
        [grads[0].w1.ravel(), grads[0].b1, grads[0].w2.ravel(), grads[0].b2]
    )
    num_theta = finite_diff_grad(loss_of_theta, packed, eps=1e-5)
    assert relative_error(analytic, num_theta) < 1e-4


def kinked_problem():
    """Integer inputs and weights with zero biases: many pre-activations are exactly 0."""
    rng = make_rng(14)
    h = rng.integers(-1, 2, size=(7, 4)).astype(float)
    params = init_decoders(4, [3, 5], 15)
    for theta in params:
        theta.w1 = rng.integers(-1, 2, size=theta.w1.shape).astype(float)
    ds = MultiViewDataset(views=[rng.normal(size=(7, d)) for d in (3, 5)])
    return h, params, ds


@pytest.mark.parametrize(
    "case",
    ["hidden 2F above d_v", "d_v 512 above 2F", "one sample", "pre-activations at the kink"],
)
def test_grads_equal_the_out_of_place_reference_bit_for_bit(case):
    if case == "hidden 2F above d_v":
        h, params, ds = small_problem(seed=10, n=9, f=6, dims=(3, 5))
    elif case == "d_v 512 above 2F":
        h, params, ds = small_problem(seed=11, n=12, f=8, dims=(512, 7))
    elif case == "one sample":
        h, params, ds = small_problem(seed=12, n=1, f=4, dims=(3, 9))
    else:
        h, params, ds = kinked_problem()
        pre = [h @ theta.w1.T + theta.b1 for theta in params]
        assert all(np.any(x == 0.0) for x in pre)
    grad_h, grads = reconstruction_grads(h, params, ds)
    decoders = [(t.w1, t.b1, t.w2, t.b2) for t in params]
    want_h, want = reconstruction_grads_reference(h, decoders, ds.views)
    got = [grad_h] + [x for g in grads for x in (g.w1, g.b1, g.w2, g.b2)]
    ref = [want_h] + [x for g in want for x in g]
    for a, b in zip(got, ref, strict=True):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # signed zeros too


def test_grads_reject_a_decoder_count_mismatch():
    h, params, ds = small_problem(seed=9)
    with pytest.raises(ShapeError):
        reconstruction_grads(h, params[:1], ds)


def test_grads_reject_a_non_finite_latent():
    h, params, ds = small_problem(seed=10)
    h[2, 1] = np.nan
    with pytest.raises(NumericError):
        reconstruction_grads(h, params, ds)


def test_grad_of_sample_independent_of_other_rows():
    h, params, ds = small_problem(seed=8)
    grad_h, _ = reconstruction_grads(h, params, ds)
    views = [v.copy() for v in ds.views]
    views[0][3] += 2.5  # perturb a different sample's features
    perturbed = MultiViewDataset(views=views)
    grad_h2, _ = reconstruction_grads(h, params, perturbed)
    assert np.array_equal(grad_h[0], grad_h2[0])
    assert not np.array_equal(grad_h[3], grad_h2[3])


def test_per_sample_separability_under_permutation():
    h, params, ds = small_problem(seed=9)
    losses = per_sample_reconstruction(h, params, ds)
    perm = make_rng(10).permutation(h.shape[0])
    permuted_ds = MultiViewDataset(views=[v[perm] for v in ds.views])
    permuted_losses = per_sample_reconstruction(h[perm], params, permuted_ds)
    assert np.max(np.abs(losses[perm] - permuted_losses)) < 1e-12
    assert reconstruction_loss(h, params, ds) == pytest.approx(float(losses.mean()))
