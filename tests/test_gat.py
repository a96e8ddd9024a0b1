import gc
import tracemalloc

import numpy as np
import pytest

from slrl import gat
from slrl.data import synth_multiview
from slrl.errors import ParameterError, ShapeError
from slrl.gat import (
    LEAKY_SLOPE,
    GatParams,
    attention_coeffs,
    init_gat_stack,
    stack_backward,
    stack_forward,
)
from slrl.graph import build_graph
from slrl.numerics import finite_diff_grad, make_rng, relative_error
from slrl.train import TrainConfig, load_checkpoint, save_checkpoint, train

from oracles import attention_oracle, gat_layer_oracle


def csr(neighborhoods):
    indptr = np.zeros(len(neighborhoods) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(v) for v in neighborhoods])
    return indptr, np.concatenate([np.asarray(v, dtype=np.int64) for v in neighborhoods])


def neighborhood_lists(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


def random_params(seed, f_in, f_prime, heads):
    return init_gat_stack(1, f_in, f_prime, heads, seed)[0]


def random_graph(seed, n, f, k=3):
    h = make_rng(seed).normal(size=(n, f))
    return h, build_graph(h, k=k)


def test_singleton_neighborhood_gives_unit_alpha():
    params = random_params(0, 3, 4, heads=1)
    h = make_rng(1).normal(size=(2, 3))
    nbhd = csr([[0], [1]])  # only the self loop
    alphas = attention_coeffs(params, 0, h, nbhd)
    assert alphas[0].shape == (1,) and alphas[0][0] == pytest.approx(1.0)


def test_zero_weights_give_uniform_attention():
    params = GatParams(w=[np.zeros((4, 3))], a=[np.ones(8)])
    h, g = random_graph(2, n=6, f=3)
    indptr, indices = g.neighborhoods()
    alphas = attention_coeffs(params, 0, h, (indptr, indices))
    for i, row in enumerate(alphas):
        size = indptr[i + 1] - indptr[i]
        assert np.max(np.abs(row - 1.0 / size)) < 1e-12


def test_attention_matches_eq_oracle():
    for seed in range(20):
        params = random_params(seed, 3, 3, heads=1)
        h, g = random_graph(seed + 100, n=4, f=3, k=2)
        indptr, indices = g.neighborhoods()
        got = attention_coeffs(params, 0, h, (indptr, indices))
        want = attention_oracle(
            params.w[0], params.a[0], LEAKY_SLOPE, h, neighborhood_lists(indptr, indices)
        )
        for r_got, r_want in zip(got, want):
            assert np.max(np.abs(r_got - r_want)) < 1e-9


def test_attention_rows_stochastic():
    params = random_params(3, 5, 4, heads=2)
    h, g = random_graph(4, n=10, f=5)
    for head in range(2):
        for row in attention_coeffs(params, head, h, g.neighborhoods()):
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row > 0)


def test_forward_single_forced_neighbor():
    # one neighbor, self excluded: output row is act(W h_j)
    params = random_params(5, 3, 4, heads=1)
    h = make_rng(6).normal(size=(2, 3))
    nbhd = csr([[1], [0]])
    out = stack_forward([params], h, nbhd)[0]
    expected = 1.0 / (1.0 + np.exp(-(params.w[0] @ h[1])))
    assert np.max(np.abs(out[0] - expected)) < 1e-12


def test_forward_zero_weights_sigmoid_half():
    params = GatParams(w=[np.zeros((4, 3))] * 2, a=[np.zeros(8)] * 2)
    h, g = random_graph(7, n=5, f=3)
    out = stack_forward([params], h, g.neighborhoods())[0]
    assert np.max(np.abs(out - 0.5)) < 1e-12


def test_forward_matches_transcription_oracle():
    for seed in range(20):
        params = random_params(seed, 4, 3, heads=2)
        h, g = random_graph(seed + 50, n=6, f=4, k=2)
        indptr, indices = g.neighborhoods()
        got = stack_forward([params], h, (indptr, indices))[0]
        want = gat_layer_oracle(
            params.w, params.a, LEAKY_SLOPE, h, neighborhood_lists(indptr, indices)
        )
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-9


def test_sigmoid_output_range():
    params = random_params(8, 4, 4, heads=3)
    h, g = random_graph(9, n=8, f=4)
    out = stack_forward([params], h, g.neighborhoods())[0]
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_locality_of_forward():
    params = random_params(10, 3, 3, heads=2)
    h, g = random_graph(11, n=9, f=3, k=2)
    nbhd = g.neighborhoods()
    out = stack_forward([params], h, nbhd)[0]
    target = 0
    neighborhood = set(g.nbrs[target].tolist()) | {target}
    outsider = next(i for i in range(g.n) if i not in neighborhood)
    h2 = h.copy()
    h2[outsider] += 1.7
    out2 = stack_forward([params], h2, nbhd)[0]
    assert np.array_equal(out[target], out2[target])


def test_permutation_equivariance():
    params = random_params(12, 3, 4, heads=2)
    h, g = random_graph(13, n=7, f=3, k=2)
    out = stack_forward([params], h, g.neighborhoods())[0]
    perm = make_rng(14).permutation(g.n)
    inv = np.argsort(perm)
    h_perm = h[perm]
    g_perm = build_graph(h_perm, k=2)
    out_perm = stack_forward([params], h_perm, g_perm.neighborhoods())[0]
    assert np.max(np.abs(out_perm - out[perm])) < 1e-9


def test_backward_zero_upstream():
    params = random_params(15, 4, 3, heads=2)
    h, g = random_graph(16, n=6, f=4)
    _, caches = stack_forward([params], h, g.neighborhoods())
    [grads], grad_h = stack_backward([params], caches, np.zeros((6, 3)))
    assert all(np.max(np.abs(gw)) == 0 for gw in grads.w)
    assert all(np.max(np.abs(ga)) == 0 for ga in grads.a)
    assert np.max(np.abs(grad_h)) == 0


def test_backward_matches_finite_differences():
    params = random_params(17, 3, 3, heads=2)
    h, g = random_graph(18, n=5, f=3, k=2)
    nbhd = g.neighborhoods()
    upstream = make_rng(19).normal(size=(5, params.f_prime))

    _, caches = stack_forward([params], h, nbhd)
    [grads], grad_h = stack_backward([params], caches, upstream)

    def scalar_of_h(vec):
        return float(np.sum(upstream * stack_forward([params], vec.reshape(h.shape), nbhd)[0]))

    assert relative_error(grad_h.ravel(), finite_diff_grad(scalar_of_h, h.ravel(), 1e-5)) < 1e-4

    for k in range(params.heads):
        def scalar_of_w(vec, k=k):
            w = [m.copy() for m in params.w]
            w[k] = vec.reshape(params.w[k].shape)
            p = GatParams(w=w, a=params.a)
            return float(np.sum(upstream * stack_forward([p], h, nbhd)[0]))

        num = finite_diff_grad(scalar_of_w, params.w[k].ravel(), 1e-5)
        assert relative_error(grads.w[k].ravel(), num) < 1e-4

        def scalar_of_a(vec, k=k):
            a = [v.copy() for v in params.a]
            a[k] = vec
            p = GatParams(w=params.w, a=a)
            return float(np.sum(upstream * stack_forward([p], h, nbhd)[0]))

        num_a = finite_diff_grad(scalar_of_a, params.a[k], 1e-5)
        assert relative_error(grads.a[k], num_a) < 1e-4


def test_backward_locality():
    params = random_params(20, 3, 3, heads=1)
    h, g = random_graph(21, n=9, f=3, k=2)
    target = 0
    neighborhood = set(g.nbrs[target].tolist()) | {target}
    outsider = next(i for i in range(g.n) if i not in neighborhood)
    upstream = np.zeros((g.n, 3))
    upstream[target] = 1.0
    _, caches = stack_forward([params], h, g.neighborhoods())
    _, grad_h = stack_backward([params], caches, upstream)
    assert np.max(np.abs(grad_h[outsider])) == 0.0


# 3-node CSR pairs that each break one rule: every entry is a whole number,
# indptr has n + 1 entries, starts at 0, never decreases and ends at
# len(indices); every id lies in [0, n)
BAD_PAIRS = {
    "indptr-too-long": ([0, 1, 2, 3, 3], [1, 2, 0]),
    "indptr-too-short": ([0, 1, 3], [1, 2, 0]),
    "indptr-not-from-0": ([1, 1, 2, 3], [1, 2, 0]),
    "indptr-decreasing": ([0, 2, 1, 3], [1, 2, 0]),
    "indptr-end-mismatch": ([0, 1, 2, 2], [1, 2, 0]),
    "id-past-n": ([0, 1, 2, 3], [1, 5, 0]),
    "id-negative": ([0, 1, 2, 3], [1, -1, 0]),
    "id-fraction": ([0, 1, 2, 3], [0.7, 1.9, 2.2]),  # was read as ids 0, 1, 2
    "id-nan": ([0, 1, 2, 3], [1.0, np.nan, 0.0]),
    "indptr-fraction": ([0.0, 1.5, 2, 3], [1, 2, 0]),
}


@pytest.mark.parametrize("pair", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
@pytest.mark.parametrize("call", ["attention_coeffs", "stack"])
def test_malformed_neighborhoods_raise_shape_error(pair, call):
    params = random_params(40, 3, 3, heads=2)
    h = make_rng(41).normal(size=(3, 3))
    run = {
        "attention_coeffs": lambda: attention_coeffs(params, 0, h, pair),
        "stack": lambda: stack_forward([params], h, pair),
    }[call]
    with pytest.raises(ShapeError):
        run()


@pytest.mark.parametrize("call", ["attention_coeffs", "stack"])
def test_integer_valued_neighborhoods_are_accepted(call):
    # floats that are whole numbers, and any integer dtype, read as the int64 pair
    params = random_params(44, 3, 3, heads=2)
    h = make_rng(45).normal(size=(3, 3))
    pairs = [
        ([0, 2, 3, 4], [1, 2, 0, 1]),
        ([0.0, 2.0, 3.0, 4.0], [1.0, 2.0, 0.0, 1.0]),
        (np.array([0, 2, 3, 4], dtype=np.uint8), np.array([1, 2, 0, 1], dtype=np.int32)),
    ]
    if call == "stack":
        runs = [stack_forward([params], h, pair)[0] for pair in pairs]
    else:
        runs = [np.concatenate(attention_coeffs(params, 1, h, pair)) for pair in pairs]
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: init_gat_stack(1.0, 3, 3, 2, 0), "layers"),
        (lambda: init_gat_stack(1, 3.0, 3, 2, 0), "f_in"),
        (lambda: init_gat_stack(1, 3, 3.5, 2, 0), "f_prime"),
        (lambda: init_gat_stack(1, 3, 3, True, 0), "heads"),
        (lambda: init_gat_stack(1, 3, 3, 2, 0.5), "seed"),
        (lambda: attention_coeffs(random_params(0, 3, 3, 2), 0.5, np.eye(3), csr([[0]] * 3)),
         "head"),
    ],
    ids=["layers", "f_in", "f_prime", "heads", "seed", "head"],
)
def test_counts_must_be_integers(call, name):
    # fractional counts raised TypeError (init) or IndexError (the head), and a
    # fractional seed was truncated
    with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize(
    "args, name, least",
    [
        ((-1, 3, 3, 2, 0), "layers", 0),
        ((1, 0, 3, 2, 0), "f_in", 1),
        ((1, 3, 0, 2, 0), "f_prime", 1),
        ((1, 3, 3, 0, 0), "heads", 1),
        ((1, 3, 3, -1, 0), "heads", 1),
    ],
    ids=["layers", "f_in", "f_prime", "heads-zero", "heads-negative"],
)
def test_sizes_must_be_in_range(args, name, least):
    # a negative size raised numpy's ValueError, f_in = 0 ZeroDivisionError, no
    # heads a ShapeError, and layers = -1 gave an empty stack
    with pytest.raises(ParameterError, match=f"^{name} must be >= {least}, got "):
        init_gat_stack(*args)


def test_heads_are_stacked_arrays(tmp_path):
    # each layer holds its heads' W as one (K, F', F) array and their a as one
    # (K, 2F') array, whether drawn, returned as gradients or built from lists
    stack = init_gat_stack(2, 5, 3, heads=4, seed=2)
    h, g = random_graph(46, n=12, f=5)
    out, caches = stack_forward(stack, h, g.neighborhoods())
    grads, _ = stack_backward(stack, caches, make_rng(47).normal(size=out.shape))
    for params in [*stack, *grads]:
        assert type(params.w) is np.ndarray and params.w.dtype == np.float64
        assert type(params.a) is np.ndarray and params.a.dtype == np.float64
        assert params.a.shape == (4, 6)
    assert [p.w.shape for p in [*stack, *grads]] == [(4, 3, 5), (4, 3, 3)] * 2
    from_lists = GatParams(w=list(stack[0].w), a=[list(a) for a in stack[0].a])
    assert from_lists.w.tobytes() == stack[0].w.tobytes()
    assert from_lists.a.tobytes() == stack[0].a.tobytes()
    # the numbers of the per-head draws: per layer, every head's W, then every a
    rng, sa = make_rng(2), np.sqrt(6.0 / 7)
    for layer, fan_in in zip(stack, (5, 3)):
        sw = np.sqrt(6.0 / fan_in)
        w = [rng.uniform(-sw, sw, size=(3, fan_in)) for _ in range(4)]
        a = [rng.uniform(-sa, sa, size=6) for _ in range(4)]
        assert layer.w.tobytes() == np.stack(w).tobytes()
        assert layer.a.tobytes() == np.stack(a).tobytes()

    # ragged W, ragged a, a head without a, a of the wrong length, no heads, a 2-D w
    malformed = [
        ([np.zeros((4, 3)), np.zeros((4, 2))], [np.zeros(8)] * 2),
        ([np.zeros((4, 3))] * 2, [np.zeros(8), np.zeros(6)]),
        ([np.zeros((4, 3))] * 2, [np.zeros(8)]),
        ([np.zeros((4, 3))], [np.zeros(6)]),
        ([], []),
        (np.zeros((4, 3)), np.zeros((4, 8))),
    ]
    for w, a in malformed:
        with pytest.raises(ShapeError):
            GatParams(w=w, a=a)

    report = train(
        synth_multiview(3, 6, [4, 3], seed=0),
        TrainConfig(latent_dim=4, k=3, heads=2, gat_layers=2, epochs=1, pretrain_epochs=1),
    )
    save_checkpoint(report, tmp_path)
    names = [line.split()[0] for line in (tmp_path / "index.txt").read_text().splitlines()]
    want = [f"gat{i}.head{k}.{f}" for i in range(2) for f in "wa" for k in range(2)]
    assert [name for name in names if name.startswith("gat")] == want
    back = load_checkpoint(tmp_path)
    for i, layer in enumerate(report.gat_stack):
        for k in range(2):
            assert back[f"gat{i}.head{k}.w"].tobytes() == layer.w[k].tobytes()
            assert back[f"gat{i}.head{k}.a"].tobytes() == layer.a[k].tobytes()


def test_stack_identity_when_empty():
    h = make_rng(22).normal(size=(4, 3))
    out, caches = stack_forward([], h, None)
    assert np.array_equal(out, h) and caches == []
    grads, grad_h = stack_backward([], [], np.ones_like(h))
    assert grads == [] and np.array_equal(grad_h, np.ones_like(h))


# (upstream, caches kept) for one layer with output (6, 3): numpy would broadcast
# the first four upstreams and fail inside einsum on the 3-d one
BAD_BACKWARD_INPUTS = {
    "column": (np.ones((6, 1)), 1),
    "row": (np.ones((1, 3)), 1),
    "vector": (np.ones(3), 1),
    "scalar": (np.float64(1.0), 1),
    "3-d": (np.ones((6, 1, 1)), 1),
    "short-caches": (np.ones((6, 3)), 0),
}


@pytest.mark.parametrize(
    "upstream, kept", BAD_BACKWARD_INPUTS.values(), ids=BAD_BACKWARD_INPUTS.keys()
)
def test_stack_backward_rejects_bad_upstream(upstream, kept):
    params = random_params(42, 4, 3, heads=2)
    h, g = random_graph(43, n=6, f=4)
    _, caches = stack_forward([params], h, g.neighborhoods())
    with pytest.raises(ShapeError):
        stack_backward([params], caches[:kept], upstream)


def test_stack_two_layers_shapes():
    stack = init_gat_stack(2, 4, 3, heads=2, seed=0)
    h, g = random_graph(23, n=6, f=4)
    out, caches = stack_forward(stack, h, g.neighborhoods())
    assert out.shape == (6, 3)  # every layer is F' wide
    assert stack[1].f_in == 3
    grads, grad_h = stack_backward(stack, caches, np.ones_like(out))
    assert grad_h.shape == h.shape
    assert len(grads) == 2
    # one GatParams of gradients per layer, shaped like that layer's parameters
    for layer, grad in zip(stack, grads, strict=True):
        assert isinstance(grad, GatParams)
        assert [g.shape for g in [*grad.w, *grad.a]] == [x.shape for x in [*layer.w, *layer.a]]


def test_alpha_row_sums_exposed_by_cache():
    stack = init_gat_stack(1, 3, 3, heads=2, seed=1)
    h, g = random_graph(24, n=7, f=3)
    _, caches = stack_forward(stack, h, g.neighborhoods())
    sums = caches[0].row_sums
    assert sums.shape == (2, 7)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


# a prebuilt neighborhood CSR with one empty row (node 2), and one with no edges
ONE_EMPTY_ROW = [[0, 3], [1, 4], [], [0, 3, 4], [1]]
NO_EDGES = [[]] * 5


@pytest.mark.parametrize("lists", [ONE_EMPTY_ROW, NO_EDGES], ids=["one-empty-row", "no-edges"])
def test_empty_neighborhoods_forward_matches_oracle(lists):
    params = random_params(30, 3, 4, heads=2)
    h = make_rng(31).normal(size=(5, 3))
    nbhd = csr(lists)
    out = stack_forward([params], h, nbhd)[0]
    want = gat_layer_oracle(params.w, params.a, LEAKY_SLOPE, h, lists)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - want)) < 1e-12
    for i, ids in enumerate(lists):
        if not ids:
            assert np.all(out[i] == 0.5)  # the sigmoid of a zero aggregate


@pytest.mark.parametrize("lists", [ONE_EMPTY_ROW, NO_EDGES], ids=["one-empty-row", "no-edges"])
def test_empty_neighborhoods_backward_matches_finite_differences(lists):
    params = random_params(32, 3, 3, heads=2)
    h = make_rng(33).normal(size=(5, 3))
    nbhd = csr(lists)
    upstream = make_rng(34).normal(size=(5, 3))
    _, caches = stack_forward([params], h, nbhd)
    [grads], grad_h = stack_backward([params], caches, upstream)
    for grad in [*grads.w, *grads.a, grad_h]:
        assert np.all(np.isfinite(grad))

    def scalar_of_h(vec):
        out = stack_forward([params], vec.reshape(h.shape), nbhd)[0]
        return float(np.sum(upstream * out))

    assert relative_error(grad_h.ravel(), finite_diff_grad(scalar_of_h, h.ravel(), 1e-5)) < 1e-4
    for k in range(params.heads):
        def scalar_of_a(vec, k=k):
            a = [v.copy() for v in params.a]
            a[k] = vec
            p = GatParams(w=params.w, a=a)
            return float(np.sum(upstream * stack_forward([p], h, nbhd)[0]))

        num_a = finite_diff_grad(scalar_of_a, params.a[k], 1e-5)
        assert relative_error(grads.a[k], num_a) < 1e-4


@pytest.mark.parametrize("lists", [ONE_EMPTY_ROW, NO_EDGES], ids=["one-empty-row", "no-edges"])
def test_empty_neighborhoods_alpha_row_sums(lists):
    stack = init_gat_stack(1, 3, 3, heads=2, seed=35)
    h = make_rng(36).normal(size=(5, 3))
    _, caches = stack_forward(stack, h, csr(lists))
    sums = caches[0].row_sums
    nonempty = np.array([len(ids) > 0 for ids in lists])
    assert np.max(np.abs(sums[:, nonempty] - 1.0), initial=0.0) < 1e-12
    assert np.all(sums[:, ~nonempty] == 0.0)


def test_backward_edge_chunks_do_not_change_gradients(monkeypatch):
    # ELL pieces of 7 slots against the default size: only the grouping of rows
    # into pieces changes, so the output and every gradient are bitwise equal
    h, g = random_graph(23, 40, 5, k=4)
    stack = init_gat_stack(2, 5, 3, 2, seed=4)
    upstream = make_rng(24).normal(size=(40, 3))

    def run():
        out, caches = stack_forward(stack, h, g.neighborhoods())
        grads, grad_h = stack_backward(stack, caches, upstream)
        return caches[0].adj, [out, grad_h] + [x for layer in grads for x in [*layer.w, *layer.a]]

    whole_adj, whole = run()
    monkeypatch.setattr(gat, "_PIECE_SLOTS", 7)  # many pieces, some with a remainder row
    pieced_adj, pieced = run()
    assert isinstance(pieced_adj, gat._Adjacency)
    assert len(pieced_adj.rows) > 3 * len(whole_adj.rows)
    assert len(pieced_adj.cols) > 3 * len(whole_adj.cols)
    assert all(np.array_equal(x, y) for x, y in zip(whole, pieced, strict=True))


# row 0 lists node 3 twice, and rows 2 and 5 are empty
WITH_REPEAT = [[0, 3, 3, 1], [1, 0, 4], [], [3, 0, 1], [4, 1, 6], [], [6, 4, 0]]


def _check_stack(stack, h, lists, upstream):
    """The stack's output against the oracle, layer by layer (< 1e-12), and its
    gradients for h and every parameter against central differences (< 1e-4).
    Returns the first layer's adjacency."""
    nbhd = csr(lists)
    out, caches = stack_forward(stack, h, nbhd)
    want = h
    for layer in stack:
        want = gat_layer_oracle(layer.w, layer.a, LEAKY_SLOPE, want, lists)
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) < 1e-12

    grads, grad_h = stack_backward(stack, caches, upstream)
    heads = stack[0].heads
    shapes = [x.shape for layer in stack for x in [*layer.w, *layer.a]]
    sizes = [int(np.prod(s)) for s in shapes]

    def rebuild(vec):
        parts = [p.reshape(s) for p, s in zip(np.split(vec, np.cumsum(sizes)[:-1]), shapes)]
        layers = [parts[i : i + 2 * heads] for i in range(0, len(parts), 2 * heads)]
        return [GatParams(w=x[:heads], a=x[heads:]) for x in layers]

    def loss(hh, st):
        return float(np.sum(upstream * stack_forward(st, hh, nbhd)[0]))

    theta = np.concatenate([x.ravel() for layer in stack for x in [*layer.w, *layer.a]])
    num_h = finite_diff_grad(lambda v: loss(v.reshape(h.shape), stack), h.ravel(), 1e-5)
    num_theta = finite_diff_grad(lambda v: loss(h, rebuild(v)), theta, 1e-5)
    got_theta = np.concatenate([x.ravel() for layer in grads for x in [*layer.w, *layer.a]])
    assert relative_error(grad_h.ravel(), num_h) < 1e-4
    assert relative_error(got_theta, num_theta) < 1e-4
    return caches[0].adj


def test_repeated_neighbor_and_empty_rows_match_oracle_and_finite_differences():
    stack = init_gat_stack(2, 4, 3, 2, seed=6)
    h = make_rng(50).normal(size=(7, 4))
    upstream = make_rng(51).normal(size=(7, stack[-1].f_prime))
    _check_stack(stack, h, WITH_REPEAT, upstream)


def _hub_graph():
    """40 nodes, not symmetric: node 0 lists 33 others, nodes 1-7 hold
    ``WITH_REPEAT`` (ids shifted by one: a repeated neighbor and two empty rows)
    and nodes 8-39 list 1 to 5 random others."""
    rng = make_rng(52)
    lists = [rng.choice(40, size=33, replace=False).tolist()]
    lists += [[j + 1 for j in row] for row in WITH_REPEAT]
    lists += [rng.choice(40, size=rng.integers(1, 6), replace=False).tolist() for _ in range(32)]
    return lists


def test_ell_pieces_of_a_hub_graph_match_oracle_and_finite_differences(monkeypatch):
    lists = _hub_graph()
    stack = init_gat_stack(2, 4, 3, 2, seed=7)
    h = make_rng(53).normal(size=(40, 4))
    upstream = make_rng(54).normal(size=(40, 3))
    monkeypatch.setattr(gat, "_PIECE_SLOTS", 7)
    adj = _check_stack(stack, h, lists, upstream)
    # several widths, a width cut into several pieces and padded slots, on both sides
    for pieces in (adj.rows, adj.cols):
        widths = [slots.shape[1] for _, slots, _ in pieces]
        assert len(set(widths)) >= 4 and max(map(widths.count, widths)) >= 2
        assert any((slots == adj.indices.shape[0]).any() for _, slots, _ in pieces)
    hub = [slots for nodes, slots, _ in adj.rows if 0 in nodes]
    assert [x.shape for x in hub] == [(1, 38)]  # 33 edges and 5 pad slots
    assert sorted(np.concatenate([nodes for nodes, _, _ in adj.rows])) == [
        i for i, ids in enumerate(lists) if ids
    ]


def test_backward_holds_no_edge_by_feature_gather():
    n, f = 1024, 64
    h, g = random_graph(25, n, f, k=30)
    indptr, indices = g.neighborhoods()
    edges = indices.shape[0]
    stack = init_gat_stack(1, f, f, 2, seed=5)
    out, caches = stack_forward(stack, h, (indptr, indices))
    upstream = make_rng(26).normal(size=out.shape)
    tracemalloc.start()
    try:
        stack_backward(stack, caches, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < edges * f * 8  # one (E, F') float64 gather
    assert edges >= 8 * gat._PIECE_SLOTS  # so that the bound leaves no room for one


def test_forward_holds_no_node_by_head_by_feature_array():
    # the four heads' aggregates A^k h are never stacked into one (N, K F) array:
    # the forward pass's peak stays under that array's size. The graph is sparser
    # than the backward test's, since the (E, K) coefficients live through the
    # forward pass and at k = 30 each would take three quarters of the bound.
    n, f, heads = 2048, 64, 4
    h, g = random_graph(27, n, f, k=5)
    stack = init_gat_stack(1, f, f, heads, seed=6)
    tracemalloc.start()
    try:
        _, caches = stack_forward(stack, h, g.neighborhoods())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(caches[0].adj, gat._Adjacency)
    assert peak < n * heads * f * 8  # one (N, K F') float64 array


def test_backward_holds_no_node_by_head_by_feature_array():
    # the transposed aggregates A^kT d are built one block of nodes at a time, so
    # the backward pass never holds them as one (N, K F') array: its peak stays
    # under that array's size plus two (N, F) arrays
    n, f, heads = 2048, 64, 4
    h, g = random_graph(29, n, f, k=5)
    stack = init_gat_stack(1, f, f, heads, seed=7)
    out, caches = stack_forward(stack, h, g.neighborhoods())
    upstream = make_rng(30).normal(size=out.shape)
    tracemalloc.start()
    try:
        stack_backward(stack, caches, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n * heads * f + 2 * n * f) * 8
    assert len(caches[0].adj.col_blocks) == n // gat._NODE_BLOCK


def test_backward_node_blocks_move_only_w_gradients(monkeypatch):
    # blocks of 7 nodes, the last taking a one-node remainder, against a single
    # block: the output, the input gradient and every a gradient are bitwise
    # equal, and W's gradients, sums of per-block products, agree to rounding
    n = 7 * 42 + 1
    h, g = random_graph(57, n, 5, k=4)
    stack = init_gat_stack(2, 5, 3, 2, seed=11)
    upstream = make_rng(58).normal(size=(n, 3))

    def run(block):
        monkeypatch.setattr(gat, "_NODE_BLOCK", block)
        out, caches = stack_forward(stack, h, g.neighborhoods())
        grads, grad_h = stack_backward(stack, caches, upstream)
        return caches[0].adj, [out, grad_h, *(layer.a for layer in grads)], grads

    whole_adj, whole, whole_grads = run(n)
    adj, blocked, grads = run(7)
    assert len(whole_adj.col_blocks) == 1 and len(adj.col_blocks) == 42
    assert all(x.tobytes() == y.tobytes() for x, y in zip(whole, blocked, strict=True))
    for got, want in zip(grads, whole_grads, strict=True):
        assert np.max(np.abs(got.w - want.w)) <= 1e-13 * np.max(np.abs(want.w))
    # the column pieces cover every column with edges once, block after block
    nodes = [piece[0] for piece in adj.cols]
    assert sorted(np.concatenate(nodes)) == np.flatnonzero(np.bincount(adj.indices)).tolist()
    bounds = [(start, stop) for start, stop, _ in adj.col_blocks]
    assert bounds[-1] == (7 * 41, n)
    block_of = [[b for b, (s, e) in enumerate(bounds) if s <= min(x) and max(x) < e] for x in nodes]
    assert all(len(b) == 1 for b in block_of)
    assert [b for [b] in block_of] == sorted(b for [b] in block_of)


def _reachable_arrays(root) -> list:
    """Every numpy array reachable from ``root`` through object references and
    array bases."""
    seen, arrays, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, str, bytes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            todo.append(obj.base)
        else:
            todo.extend(gc.get_referents(obj))
    return arrays


@pytest.mark.parametrize("n", [40, 300])
def test_caches_keep_no_head_projection(n):
    # W^k h is rebuilt by the backward pass; no (N, F') array is kept for it
    f = fp = 6
    h, g = random_graph(27, n, f, k=4)
    stack = init_gat_stack(2, f, fp, 4, seed=8)
    _, caches = stack_forward(stack, h, g.neighborhoods())
    assert isinstance(caches[1].adj, gat._Adjacency)
    for cache in caches:
        arrays = _reachable_arrays(cache)
        assert any(x is cache.h_in for x in arrays)  # the walk reaches the kept arrays
        ends = (cache.h_in, cache.out)
        assert not [x for x in arrays if x.shape == (n, fp) and not any(x is e for e in ends)]


@pytest.mark.parametrize("n", [40, 300])
def test_caches_keep_no_per_edge_array(n):
    # scores and coefficients are rebuilt by the backward pass; only the adjacency
    # keeps arrays with one entry per edge
    f = fp = 6
    h, g = random_graph(28, n, f, k=4)
    nbhd = g.neighborhoods()
    edges = nbhd[1].shape[0]
    stack = init_gat_stack(2, f, fp, 4, seed=9)
    _, caches = stack_forward(stack, h, nbhd)
    for cache in caches:
        adjacency = [id(x) for x in _reachable_arrays(cache.adj)]
        arrays = _reachable_arrays(cache)
        assert any(x is cache.h_in for x in arrays)  # the walk reaches the kept arrays
        per_edge = [x for x in arrays if edges in x.shape and id(x) not in adjacency]
        assert not per_edge
