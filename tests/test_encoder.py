import tracemalloc

import numpy as np
import pytest

from slrl.data import MultiViewDataset
from slrl.encoder import (
    DecoderParams,
    _view_forward,
    init_decoders,
    init_latent,
    reconstruct,
    reconstruction_grads,
    reconstruction_loss,
)
from slrl.errors import NumericError, ParameterError, ShapeError
from slrl.numerics import descend, finite_diff_grad, make_rng, relative_error

from oracles import decode_oracle, reconstruction_grads_reference, reconstruction_oracle


def small_problem(seed=0, n=6, f=4, dims=(3, 5)):
    rng = make_rng(seed)
    h = rng.normal(size=(n, f))  # off the tiny ball init_latent draws from
    params = init_decoders(f, list(dims), seed + 1)
    ds = MultiViewDataset(views=[rng.normal(size=(n, d)) for d in dims])
    return h, params, ds


def loss(h, params, ds):
    return reconstruction_loss(reconstruct(h, params, ds))


def grads_of(h, params, ds):
    return reconstruction_grads(reconstruct(h, params, ds))


def forward(h, theta, x):
    """One view's residual f(h) - x, from the pass's per-view forward step."""
    res = np.empty((len(h), theta.b2.size))
    _view_forward(h, theta, x, np.empty((len(h), theta.b1.size)), res)
    return res


def decoded(h, params):
    """Every decoder's output: the residuals against all-zero views."""
    return [forward(h, theta, np.zeros((len(h), theta.b2.size))) for theta in params]


def test_init_latent_deterministic():
    a = init_latent(5, 8, seed=42)
    b = init_latent(5, 8, seed=42)
    assert np.array_equal(a, b)


def test_init_latent_shape():
    assert init_latent(3, 64, seed=0).shape == (3, 64)


def test_init_latent_range():
    h = init_latent(50, 16, seed=1)
    assert np.all(h >= -0.05) and np.all(h <= 0.05)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: init_latent(2.5, 3, 0), "n"),
        (lambda: init_latent(3, 4.0, 0), "f"),
        (lambda: init_latent(3, 4, 0.5), "seed"),
        (lambda: init_decoders(3.0, [4], 0), "f"),
        (lambda: init_decoders(3, [4.5], 0), "dims"),
    ],
    ids=["latent-n", "latent-f", "latent-seed", "decoders-f", "decoders-dims"],
)
def test_init_takes_only_integer_sizes_and_seeds(call, name):
    # fractional sizes raised TypeError inside the generator
    with pytest.raises(ParameterError, match=f"{name}.* must be an integer"):
        call()


@pytest.mark.parametrize(
    "f, dims, name",
    [(0, [4], "f"), (-2, [4], "f"), (3, [-1], "each dims entry"), (3, [4, 0], "each dims entry")],
    ids=["f-zero", "f-negative", "dims-negative", "dims-zero"],
)
def test_decoders_need_positive_sizes(f, dims, name):
    # a negative size raised numpy's ValueError, and a zero one built zero-width layers
    with pytest.raises(ParameterError, match=f"^{name} must be >= 1, got "):
        init_decoders(f, dims, 0)


def test_init_latent_validation():
    with pytest.raises(ParameterError):
        init_latent(0, 4, seed=0)
    with pytest.raises(ParameterError):
        init_latent(4, 1, seed=0)


def test_decode_zero_params_zero_output():
    theta = DecoderParams(w1=np.zeros((8, 4)), b1=np.zeros(8), w2=np.zeros((3, 8)), b2=np.zeros(3))
    rng = make_rng(0)
    x = rng.normal(size=(5, 3))
    res = forward(rng.normal(size=(5, 4)), theta, x)
    assert np.array_equal(res + x, np.zeros((5, 3)))


def test_decode_identity_configuration_reproduces_input():
    # relu(x) - relu(-x) = x, assembled from a stacked [I; -I] hidden layer
    f = 4
    theta = DecoderParams(
        w1=np.vstack([np.eye(f), -np.eye(f)]),
        b1=np.zeros(2 * f),
        w2=np.hstack([np.eye(f), -np.eye(f)]),
        b2=np.zeros(f),
    )
    rng = make_rng(1)
    h = rng.normal(size=(6, f))
    x = rng.normal(size=(6, f))
    res = forward(h, theta, x)
    assert np.max(np.abs(res + x - h)) < 1e-12


def test_decode_matches_layerwise_oracle():
    h, params, ds = small_problem(seed=3)
    for theta, x in zip(params, ds.views, strict=True):
        res = forward(h, theta, x)
        want = decode_oracle(theta.w1, theta.b1, theta.w2, theta.b2, h)
        assert np.max(np.abs(res + x - want)) < 1e-9


def test_reconstruction_loss_zero_at_perfect_fit():
    h, params, _ = small_problem(seed=4)
    ds = MultiViewDataset(views=decoded(h, params))
    assert loss(h, params, ds) == 0.0


def test_reconstruction_loss_zero_decoder_analytic():
    # zero decoder output, one view with sum ||x_n||^2 = 5N gives loss 5
    n, f = 4, 3
    h = init_latent(n, f, seed=0)
    theta = DecoderParams(w1=np.zeros((6, f)), b1=np.zeros(6), w2=np.zeros((2, 6)), b2=np.zeros(2))
    x = np.zeros((n, 2))
    x[:, 0] = np.sqrt(5.0)
    ds = MultiViewDataset(views=[x])
    assert loss(h, [theta], ds) == pytest.approx(5.0, abs=1e-12)


def test_reconstruction_loss_matches_direct_oracle():
    h, params, ds = small_problem(seed=5)
    want = reconstruction_oracle(decoded(h, params), ds.views)
    assert loss(h, params, ds) == pytest.approx(want, rel=1e-12)


def test_reconstruction_loss_nonnegative():
    for seed in range(5):
        h, params, ds = small_problem(seed=seed)
        assert loss(h, params, ds) >= 0.0


def test_grads_zero_at_perfect_fit():
    h, params, _ = small_problem(seed=6)
    ds = MultiViewDataset(views=decoded(h, params))
    grad_h, grads = grads_of(h, params, ds)
    assert np.max(np.abs(grad_h)) == 0.0
    for g in grads:
        assert max(np.abs(g.w1).max(), np.abs(g.w2).max()) == 0.0


def test_grads_match_finite_differences():
    h, params, ds = small_problem(seed=7)
    grad_h, grads = grads_of(h, params, ds)

    def loss_of_h(vec):
        return loss(vec.reshape(h.shape), params, ds)

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
        return loss(h, new, ds)

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


# the four shapes on which the in-place backward pass must match the reference bitwise
BIT_FOR_BIT_CASES = {
    "hidden 2F above d_v": lambda: small_problem(seed=10, n=9, f=6, dims=(3, 5)),
    "d_v 512 above 2F": lambda: small_problem(seed=11, n=12, f=8, dims=(512, 7)),
    "one sample": lambda: small_problem(seed=12, n=1, f=4, dims=(3, 9)),
    "pre-activations at the kink": kinked_problem,
}


def flat_grads(grad_h, grads) -> list:
    return [grad_h] + [x for g in grads for x in (g.w1, g.b1, g.w2, g.b2)]


@pytest.mark.parametrize("case", list(BIT_FOR_BIT_CASES))
def test_grads_equal_the_out_of_place_reference_bit_for_bit(case):
    h, params, ds = BIT_FOR_BIT_CASES[case]()
    if case == "pre-activations at the kink":
        pre = [h @ theta.w1.T + theta.b1 for theta in params]
        assert all(np.any(x == 0.0) for x in pre)
    grad_h, grads = grads_of(h, params, ds)
    decoders = [(t.w1, t.b1, t.w2, t.b2) for t in params]
    want_h, want = reconstruction_grads_reference(h, decoders, ds.views)
    got = flat_grads(grad_h, grads)
    ref = [want_h] + [x for g in want for x in g]
    for a, b in zip(got, ref, strict=True):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # signed zeros too


@pytest.mark.parametrize("case", list(BIT_FOR_BIT_CASES))
def test_a_reused_workspace_gives_the_fresh_bits(case):
    h, params, ds = BIT_FOR_BIT_CASES[case]()
    want_loss = loss(h, params, ds)
    want = [g.copy() for g in flat_grads(*grads_of(h, params, ds))]
    # run the workspace at another latent matrix, then scale its gradients in
    # place as the optimizer step does, so that any array not rewritten shows
    spent = reconstruct(h + 0.5, params, ds)
    for g in flat_grads(*reconstruction_grads(spent)):
        g *= np.nan
    rec = reconstruct(h, params, ds, out=spent)
    assert rec is spent
    assert reconstruction_loss(rec) == want_loss
    got = flat_grads(*reconstruction_grads(rec))
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_a_fresh_pass_holds_one_view_at_a_time():
    # three equal 256-wide views: all of them alive at once would be six
    # (N, 256) arrays; one view's forward and backward buffers are two
    h, params, ds = small_problem(seed=13, n=128, f=8, dims=(256, 256, 256))
    view_bytes = 2 * h.shape[0] * 256 * h.itemsize  # one view's ReLU layer and residual
    tracemalloc.start()
    try:
        rec = reconstruct(h, params, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(g.nbytes for g in flat_grads(*reconstruction_grads(rec)))
    assert peak - grad_bytes < 2 * view_bytes


def copied(params) -> list:
    return [DecoderParams(*(p.copy() for p in vars(theta).values())) for theta in params]


@pytest.mark.parametrize("case", list(BIT_FOR_BIT_CASES))
def test_a_stepped_pass_takes_the_step_of_the_kept_gradients(case):
    h, params, ds = BIT_FOR_BIT_CASES[case]()
    kept = copied(params)
    rec = reconstruct(h, kept, ds)
    for theta, grad in zip(kept, reconstruction_grads(rec)[1], strict=True):
        for p, g in zip(vars(theta).values(), vars(grad).values(), strict=True):
            descend(p, g, 0.1, "")
    # a spent workspace, its gradient arrays poisoned, so that any entry not rewritten shows
    spent = reconstruct(h + 0.5, copied(params), ds, scale=0.1)
    for g in vars(spent.work).values():
        g *= np.nan
    stepped = reconstruct(h, params, ds, out=spent, scale=0.1)
    assert stepped is spent and reconstruction_grads(stepped)[1] == []
    assert reconstruction_loss(stepped) == reconstruction_loss(rec)
    assert stepped.grad_h.tobytes() == rec.grad_h.tobytes()
    for theta, want in zip(params, kept, strict=True):
        for a, b in zip(vars(theta).values(), vars(want).values(), strict=True):
            assert a.tobytes() == b.tobytes()


def test_a_stepped_pass_holds_one_view_of_decoder_gradients():
    # each decoder steps as soon as its view's backward pass ends, and the next
    # view reuses its gradient arrays: three views' gradients would pass the bound
    h, params, ds = small_problem(seed=13, n=128, f=8, dims=(256, 256, 256))
    view_bytes = 2 * h.shape[0] * 256 * h.itemsize  # one view's ReLU layer and residual
    grad_bytes = sum(p.nbytes for p in vars(params[0]).values())  # one view's gradients
    tracemalloc.start()
    try:
        rec = reconstruct(h, params, ds, scale=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reconstruction_grads(rec)[1] == []
    assert sum(g.nbytes for g in vars(rec.work).values()) == grad_bytes
    assert peak - grad_bytes < 2 * view_bytes


def values_of(h, params) -> list:
    return [h.tobytes()] + [p.tobytes() for theta in params for p in vars(theta).values()]


@pytest.mark.parametrize(
    "first, then, other",
    [(None, 0.1, {}), (0.1, None, {})]  # a result of the other kind of pass
    + [(s, s, o) for s in (None, 0.1) for o in ({"n": 4}, {"dims": (3, 4)}, {"f": 3})],
)
def test_a_result_that_does_not_fit_the_pass_is_a_shape_error(first, then, other):
    # the other kind of pass, then fewer samples, a narrower view, a narrower latent matrix
    h, params, ds = small_problem(seed=14)  # n=6, f=4, dims=(3, 5)
    out = reconstruct(*small_problem(seed=14, **other), scale=first)
    before = values_of(h, params)
    with pytest.raises(ShapeError, match="same kind"):
        reconstruct(h, params, ds, out=out, scale=then)
    assert values_of(h, params) == before


def test_grads_reject_a_decoder_count_mismatch():
    h, params, ds = small_problem(seed=9)
    with pytest.raises(ShapeError):
        reconstruct(h, params[:1], ds)


def test_grads_reject_a_non_finite_latent():
    h, params, ds = small_problem(seed=10)
    h[2, 1] = np.nan
    with pytest.raises(NumericError):
        reconstruct(h, params, ds)


def test_grad_of_sample_independent_of_other_rows():
    h, params, ds = small_problem(seed=8)
    grad_h, _ = grads_of(h, params, ds)
    views = [v.copy() for v in ds.views]
    views[0][3] += 2.5  # perturb a different sample's features
    perturbed = MultiViewDataset(views=views)
    grad_h2, _ = grads_of(h, params, perturbed)
    assert np.array_equal(grad_h[0], grad_h2[0])
    assert not np.array_equal(grad_h[3], grad_h2[3])


def test_per_sample_separability_under_permutation():
    h, params, ds = small_problem(seed=9)
    perm = make_rng(10).permutation(h.shape[0])
    permuted_ds = MultiViewDataset(views=[v[perm] for v in ds.views])
    # permuting the samples permutes every residual row and leaves the mean alone
    rec, permuted = reconstruct(h, params, ds), reconstruct(h[perm], params, permuted_ds)
    for theta, x, permuted_x in zip(params, ds.views, permuted_ds.views, strict=True):
        res, permuted_res = forward(h, theta, x), forward(h[perm], theta, permuted_x)
        assert np.max(np.abs(res[perm] - permuted_res)) < 1e-12
    assert reconstruction_loss(permuted) == pytest.approx(reconstruction_loss(rec), rel=1e-12)
