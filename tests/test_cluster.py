import numpy as np
import pytest

from slrl.cluster import (
    cluster_grads,
    init_centroids,
    kl_loss,
    soft_assign,
    target_distribution,
)
from slrl.errors import DivergenceError, NumericError, ParameterError
from slrl.numerics import finite_diff_grad, make_rng, relative_error

from oracles import kl_oracle, soft_assign_oracle, target_oracle


def two_blobs(seed=0, per=20, gap=8.0):
    rng = make_rng(seed)
    a = rng.normal(size=(per, 3)) * 0.1
    b = rng.normal(size=(per, 3)) * 0.1 + gap
    return np.vstack([a, b])


def test_centroids_equal_points_when_c_equals_n():
    x = make_rng(1).normal(size=(4, 2))
    centers = init_centroids(x, 4, seed=0)
    got = centers[np.lexsort(centers.T)]
    want = x[np.lexsort(x.T)]
    assert np.max(np.abs(got - want)) < 1e-12


def test_centroids_recover_blob_means():
    x = two_blobs(seed=2)
    centers = init_centroids(x, 2, seed=0)
    means = np.array([x[:20].mean(axis=0), x[20:].mean(axis=0)])
    centers = centers[np.argsort(centers[:, 0])]
    means = means[np.argsort(means[:, 0])]
    assert np.max(np.abs(centers - means)) < 1e-6


def test_centroids_deterministic():
    x = make_rng(3).normal(size=(30, 4))
    a = init_centroids(x, 3, seed=5)
    b = init_centroids(x, 3, seed=5)
    assert np.array_equal(a, b)


def test_centroids_range_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        init_centroids(x, 1, seed=0)
    with pytest.raises(ParameterError):
        init_centroids(x, 6, seed=0)


def test_kmeans_handles_duplicate_points():
    # the two distinct points as centers: zero inertia, each group one cluster
    x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    centers = init_centroids(x, 2, seed=0)
    assert np.array_equal(centers[np.argsort(centers[:, 0])], np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_squared_distances_that_overflow_are_a_numeric_error():
    # every kernel of a row this far from all centroids would be 0, and Q 0/0
    ht = np.zeros((3, 2))
    mu = np.array([[2e300, 0.0], [-1.5e300, 1.0]])
    with np.errstate(over="ignore"):
        for fn in (lambda: soft_assign(ht, mu), lambda: cluster_grads(ht, mu, np.full((3, 2), 0.5))):
            with pytest.raises(NumericError, match="squared distances overflow"):
                fn()


@pytest.mark.parametrize("c", [2, 10, 1000])
def test_soft_assignments_are_strictly_positive_at_the_largest_finite_distances(c):
    # one centroid at the samples and the rest as far away as a finite squared
    # distance allows: each kernel is still at least 1 / (1 + max float), so no
    # cluster has zero soft mass and the target distribution never meets one
    far = 0.999 * np.sqrt(np.finfo(np.float64).max)
    angle = np.linspace(0.0, 2.0 * np.pi, c - 1, endpoint=False)
    mu = np.vstack([np.zeros((1, 2)), far * np.column_stack([np.cos(angle), np.sin(angle)])])
    ht = make_rng(5).normal(size=(6, 2))
    q = soft_assign(ht, mu)
    assert q.min() > 0.0
    assert np.all(np.isfinite(target_distribution(q)))


def test_soft_assign_equidistant():
    ht = np.array([[0.0, 0.0]])
    mu = np.array([[1.0, 0.0], [-1.0, 0.0]])
    q = soft_assign(ht, mu)
    assert np.max(np.abs(q - 0.5)) < 1e-12


def test_soft_assign_analytic_four_fifths():
    # at centroid 1, distance^2 of 3 to centroid 2: kernels 1 and 1/4
    ht = np.array([[0.0, 0.0]])
    mu = np.array([[0.0, 0.0], [np.sqrt(3.0), 0.0]])
    q = soft_assign(ht, mu)
    assert q[0, 0] == pytest.approx(0.8, abs=1e-12)
    assert q[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_soft_assign_matches_direct_oracle():
    for seed in range(20):
        rng = make_rng(seed)
        ht = rng.normal(size=(7, 4))
        mu = rng.normal(size=(3, 4))
        assert np.max(np.abs(soft_assign(ht, mu) - soft_assign_oracle(ht, mu))) < 1e-9


def test_soft_assign_rows_stochastic_and_positive():
    rng = make_rng(30)
    q = soft_assign(rng.normal(size=(50, 6)) * 10, rng.normal(size=(4, 6)))
    assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(q > 0)


def test_soft_assign_translation_invariant():
    rng = make_rng(31)
    ht = rng.normal(size=(8, 3))
    mu = rng.normal(size=(2, 3))
    t = np.array([2.5, -1.0, 0.5])
    assert np.max(np.abs(soft_assign(ht, mu) - soft_assign(ht + t, mu + t))) < 1e-9


def test_target_one_hot_fixed_point():
    # squaring and renormalizing leaves one-hot rows unchanged; the tiny
    # offset keeps every cluster's frequency strictly positive
    q = np.eye(3)[[0, 1, 2, 0]]
    p = target_distribution(q + 1e-300)
    assert np.max(np.abs(p - q)) < 1e-12


def test_target_single_cluster_all_ones():
    q = np.ones((4, 1))
    assert np.array_equal(target_distribution(q), np.ones((4, 1)))


def test_target_worked_example():
    q = np.array([[0.8, 0.2], [0.4, 0.6]])
    p = target_distribution(q)
    want = np.array([[32.0 / 35.0, 3.0 / 35.0], [8.0 / 35.0, 27.0 / 35.0]])
    assert np.max(np.abs(p - want)) < 1e-9


def test_target_matches_direct_oracle():
    for seed in range(20):
        rng = make_rng(seed + 40)
        raw = rng.random((6, 3)) + 0.05
        q = raw / raw.sum(axis=1, keepdims=True)
        assert np.max(np.abs(target_distribution(q) - target_oracle(q))) < 1e-9


def test_target_rows_stochastic():
    rng = make_rng(41)
    q = soft_assign(rng.normal(size=(40, 5)), rng.normal(size=(3, 5)))
    p = target_distribution(q)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(p >= 0)


def test_target_duplication_consistency():
    rng = make_rng(42)
    q = soft_assign(rng.normal(size=(10, 4)), rng.normal(size=(3, 4)))
    doubled = np.vstack([q, q])
    p_once = target_distribution(q)
    p_twice = target_distribution(doubled)
    assert np.max(np.abs(p_twice[:10] - p_once)) < 1e-12
    assert np.max(np.abs(p_twice[10:] - p_once)) < 1e-12


def test_kl_zero_at_equality():
    rng = make_rng(43)
    q = soft_assign(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)))
    assert kl_loss(q, q) == 0.0


def test_kl_log2_case():
    assert kl_loss([[1.0, 0.0]], [[0.5, 0.5]]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_kl_matches_direct_oracle():
    for seed in range(20):
        rng = make_rng(seed + 60)
        raw_p = rng.random((5, 4)) + 0.01
        raw_q = rng.random((5, 4)) + 0.01
        p = raw_p / raw_p.sum(axis=1, keepdims=True)
        q = raw_q / raw_q.sum(axis=1, keepdims=True)
        assert kl_loss(p, q) == pytest.approx(kl_oracle(p, q), abs=1e-9)


def test_kl_infinite_divergence_rejected():
    with pytest.raises(DivergenceError):
        kl_loss([[0.5, 0.5]], [[1.0, 0.0]])


def test_kl_nonnegative():
    for seed in range(10):
        rng = make_rng(seed + 70)
        raw_p = rng.random((6, 3)) + 0.01
        raw_q = rng.random((6, 3)) + 0.01
        p = raw_p / raw_p.sum(axis=1, keepdims=True)
        q = raw_q / raw_q.sum(axis=1, keepdims=True)
        assert kl_loss(p, q) >= 0.0


def test_cluster_grads_vanish_when_target_met():
    # at a configuration where soft assignment equals the target, directional
    # finite differences of the loss are zero within 1e-6
    rng = make_rng(44)
    ht = rng.normal(size=(6, 3))
    mu = rng.normal(size=(2, 3))
    p = soft_assign(ht, mu)  # target equals current assignment

    def loss_along(t, direction):
        return kl_loss(p, soft_assign(ht + t * direction, mu))

    direction = rng.normal(size=ht.shape)
    d = (loss_along(1e-4, direction) - loss_along(-1e-4, direction)) / 2e-4
    assert abs(d) < 1e-6
    grad_ht, grad_mu = cluster_grads(ht, mu, p)
    assert np.max(np.abs(grad_ht)) < 1e-12
    assert np.max(np.abs(grad_mu)) < 1e-12


def test_cluster_grads_match_finite_differences():
    rng = make_rng(45)
    ht = rng.normal(size=(7, 4))
    mu = rng.normal(size=(3, 4))
    p = target_distribution(soft_assign(ht + 0.3 * rng.normal(size=ht.shape), mu))
    grad_ht, grad_mu = cluster_grads(ht, mu, p)

    num_ht = finite_diff_grad(
        lambda v: kl_loss(p, soft_assign(v.reshape(ht.shape), mu)), ht.ravel(), 1e-5
    )
    num_mu = finite_diff_grad(
        lambda v: kl_loss(p, soft_assign(ht, v.reshape(mu.shape))), mu.ravel(), 1e-5
    )
    assert relative_error(grad_ht.ravel(), num_ht) < 1e-4
    assert relative_error(grad_mu.ravel(), num_mu) < 1e-4


def test_cluster_grad_pushes_toward_confident_centroid():
    # single sample midway between two centroids, target favoring the first:
    # descent moves the sample toward the favored centroid
    ht = np.array([[0.0, 0.0]])
    mu = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = np.array([[0.9, 0.1]])
    grad_ht, _ = cluster_grads(ht, mu, p)
    step = -grad_ht[0]
    assert step[0] > 0  # moves toward mu_0 at (+1, 0)
    d = (
        kl_loss(p, soft_assign(ht + 1e-5 * np.array([[1.0, 0.0]]), mu))
        - kl_loss(p, soft_assign(ht - 1e-5 * np.array([[1.0, 0.0]]), mu))
    ) / 2e-5
    assert d < 0  # finite differences agree on the sign
