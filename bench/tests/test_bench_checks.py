"""The benchmark's output checks: right on known cases, and they catch faults."""

import numpy as np
import pytest

import checks
from slrl.cluster import target_distribution
from slrl.data import write_matrix
from slrl.graph import build_graph
from slrl.metrics import accuracy, nmi


def test_brute_force_accuracy_hand_cases():
    assert checks.brute_force_accuracy([2, 2, 0, 0, 1], [0, 0, 1, 1, 2]) == 1.0
    # best map sends pred 0 -> 0 and pred 1 -> 1: four of six agree
    assert checks.brute_force_accuracy([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0]) == pytest.approx(4 / 6)
    # more predicted clusters than true ones: the surplus cluster matches nothing
    assert checks.brute_force_accuracy([0, 1, 2, 2], [0, 0, 1, 1]) == 0.75


def test_nmi_hand_cases():
    assert checks.contingency_nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    # independent partitions share no information
    assert checks.contingency_nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    # zero-entropy conventions
    assert checks.contingency_nmi([0, 0, 0], [5, 5, 5]) == 1.0
    assert checks.contingency_nmi([0, 0, 0], [0, 1, 1]) == 0.0


def test_scores_match_the_program_on_random_labelings():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert abs(checks.brute_force_accuracy(pred, truth) - accuracy(pred, truth)) <= 1e-12
        assert abs(checks.contingency_nmi(pred, truth) - nmi(pred, truth)) <= 1e-12


def test_check_scores_reports_mismatch_and_floor():
    pred, truth = [0, 0, 1, 1], [0, 0, 1, 0]
    _, _, errors = checks.check_scores(pred, truth, 0.75, nmi(pred, truth), (0.5, 0.0))
    assert errors == []
    _, _, errors = checks.check_scores(pred, truth, 0.5, nmi(pred, truth), (0.9, 0.0))
    assert any("recomputed" in e for e in errors) and any("floor" in e for e in errors)


def _upper_edges(g):
    pairs = [(i, int(j)) for i, ids in enumerate(g.nbrs) for j in ids if i < j]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def test_union_knn_accepts_the_program_graph():
    h = np.random.default_rng(1).normal(size=(60, 5))
    g = build_graph(h, 4)
    ties, errors = checks.check_union_knn(h, 4, *_upper_edges(g))
    assert errors == [] and ties == 0
    assert checks.check_neighbor_lists(g.nbrs) == []


def test_union_knn_catches_missing_extra_and_self_edges():
    h = np.random.default_rng(2).normal(size=(40, 3))
    ei, ej = _upper_edges(build_graph(h, 3))
    _, errors = checks.check_union_knn(h, 3, ei[1:], ej[1:])
    assert any("missing" in e for e in errors)
    d = ((h[:, None, :] - h[None, :, :]) ** 2).sum(-1)
    far = np.unravel_index(np.argmax(d), d.shape)
    _, errors = checks.check_union_knn(h, 3, ei + [min(far)], ej + [max(far)])
    assert any("extra" in e for e in errors)
    _, errors = checks.check_union_knn(h, 3, ei + [5], ej + [5])
    assert any("self-loop" in e for e in errors)


def test_union_knn_allows_only_tied_alternatives():
    # with k=1, node 0 is equally far from nodes 1 and 2, whose own nearest
    # neighbors are nodes 3 and 4; the smaller index wins the tie
    h = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.5, 0.0], [-1.5, 0.0]])
    ties, errors = checks.check_union_knn(h, 1, [0, 1, 2], [1, 3, 4])
    assert errors == [] and ties == 0
    # taking node 2 instead differs only by the tie
    ties, errors = checks.check_union_knn(h, 1, [0, 1, 2], [2, 3, 4])
    assert errors == [] and ties == 2
    # taking node 3, which is farther, is an error
    ties, errors = checks.check_union_knn(h, 1, [0, 1, 2], [3, 3, 4])
    assert any("extra edge (0, 3)" in e for e in errors)


def test_neighbor_lists_catch_one_way_edges_and_loops():
    assert checks.check_neighbor_lists([[1], [0]]) == []
    assert any("one-way" in e for e in checks.check_neighbor_lists([[1], []]))
    assert any("self-loops" in e for e in checks.check_neighbor_lists([[0, 1], [0]]))


def test_assignments():
    q = np.array([[0.7, 0.3], [0.2, 0.8]])
    assert checks.check_assignments(q, [0, 1]) == []
    assert any("argmax" in e for e in checks.check_assignments(q, [1, 1]))
    assert any("row sums" in e for e in checks.check_assignments(q * 1.01, [0, 1]))
    assert any("negative" in e for e in checks.check_assignments(-q, [0, 1]))


def test_target_matches_the_program_and_catches_a_change():
    q = np.random.default_rng(3).dirichlet(np.ones(4), size=30)
    p = target_distribution(q)
    assert checks.check_target(q, p) == []
    assert checks.check_target(q, q) != []


def test_losses():
    assert checks.check_losses([1.0, 0.5], [0.0, 0.1], [1.0, 1.5], 10.0) == []
    assert checks.check_losses([1.0], [-0.1], [0.0], 10.0) != []
    assert checks.check_losses([np.nan], [0.0], [np.nan], 10.0) != []
    assert checks.check_losses([1.0], [0.1], [1.1], 10.0) != []


def test_read_mvm_round_trip_and_truncation(tmp_path):
    m = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    write_matrix(tmp_path / "m.mvm", m)
    assert np.array_equal(checks.read_mvm(tmp_path / "m.mvm"), m)
    (tmp_path / "t.mvm").write_bytes((tmp_path / "m.mvm").read_bytes()[:-8])
    with pytest.raises(ValueError):
        checks.read_mvm(tmp_path / "t.mvm")

