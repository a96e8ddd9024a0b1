import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import slrl.metrics
from slrl.errors import ParameterError
from slrl.metrics import _max_matched, aggregate_rows, evaluate
from slrl.numerics import make_rng

from oracles import (
    acc_bruteforce,
    ari_oracle,
    f_score_oracle,
    metrics_reference,
    nmi_oracle,
    partitions_up_to,
)


def test_accuracy_identical():
    assert evaluate([0, 1, 2, 0], [0, 1, 2, 0]).acc == 1.0


def test_accuracy_relabeling_invariant():
    truth = [0, 0, 1, 1, 2]
    pred = [2, 2, 0, 0, 1]
    assert evaluate(pred, truth).acc == 1.0


def test_accuracy_hand_case():
    assert evaluate([0, 0, 1, 1], [0, 1, 1, 1]).acc == pytest.approx(0.75)
    assert acc_bruteforce([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)


def test_accuracy_rectangular_contingency():
    pred = [0, 1, 2, 3]
    truth = [0, 0, 1, 1]
    assert evaluate(pred, truth).acc == pytest.approx(acc_bruteforce(pred, truth))


def _seeded_tables(seed, count, max_c, max_count):
    """Count tables cycling through square, wide, tall, 1 x m and n x 1 shapes,
    filled with spread-out counts, tie-heavy counts or (every tenth) zeros."""
    rng = make_rng(seed)
    for t in range(count):
        r, c = sorted(int(x) for x in rng.integers(1, max_c + 1, size=2))
        shape = [(c, c), (r, c), (c, r), (1, c), (c, 1)][t % 5]
        if t % 10 == 9:
            yield np.zeros(shape, dtype=np.int64)
        elif t % 2:
            yield rng.integers(0, 2, size=shape) * int(rng.integers(1, max_count + 1))
        else:
            yield rng.integers(0, max_count + 1, size=shape)


def test_max_matched_equals_scipy_assignment():
    for table in _seeded_tables(seed=11, count=3000, max_c=30, max_count=60):
        rows, cols = linear_sum_assignment(table, maximize=True)
        got = _max_matched(table)
        assert type(got) is int
        assert got == int(table[rows, cols].sum()), table


def test_accuracy_equals_bruteforce_on_small_tables():
    checked = 0
    for table in _seeded_tables(seed=12, count=600, max_c=5, max_count=4):
        pred, truth = np.nonzero(table)
        counts = table[pred, truth]
        pred, truth = np.repeat(pred, counts), np.repeat(truth, counts)
        if pred.size == 0:
            continue
        best = acc_bruteforce(pred, truth)
        assert _max_matched(table) / pred.size == best, table
        assert evaluate(pred, truth).acc == best, table
        checked += 1
    assert checked > 400


def test_accuracy_length_mismatch():
    with pytest.raises(ParameterError):
        evaluate([0, 1], [0, 1, 2])


def test_accuracy_lower_bound():
    rng = make_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        pred = rng.integers(0, 3, size=n)
        truth = rng.integers(0, 3, size=n)
        assert evaluate(pred, truth).acc >= 1.0 / n


def test_nmi_identical_partitions_exact_one():
    assert evaluate([0, 0, 1, 1, 2], [5, 5, 7, 7, 9]).nmi == 1.0


def test_nmi_single_cluster_pred_zero():
    assert evaluate([0, 0, 0, 0], [0, 1, 0, 1]).nmi == 0.0


def test_nmi_both_single_cluster_one():
    assert evaluate([3, 3, 3], [1, 1, 1]).nmi == 1.0


def test_nmi_independent_case_matches_oracle():
    pred = [0, 0, 1, 1]
    truth = [0, 1, 0, 1]
    got = evaluate(pred, truth).nmi
    assert got == pytest.approx(nmi_oracle(pred, truth), abs=1e-12)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_f_score_identical():
    assert evaluate([0, 1, 1, 0], [2, 3, 3, 2]).f_score == 1.0


def test_f_score_singletons_zero():
    assert evaluate([0, 1, 2, 3], [0, 0, 1, 1]).f_score == 0.0


def test_f_score_hand_case():
    pred = [0, 0, 1, 1]
    truth = [0, 0, 0, 1]
    assert evaluate(pred, truth).f_score == pytest.approx(f_score_oracle(pred, truth))


def test_ari_identical():
    assert evaluate([0, 0, 1, 1], [1, 1, 0, 0]).ari == 1.0


def test_ari_hand_case_minus_half():
    assert evaluate([0, 0, 1, 1], [0, 1, 0, 1]).ari == pytest.approx(-0.5)
    assert ari_oracle([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_relabeling_invariant():
    rng = make_rng(1)
    truth = rng.integers(0, 3, size=12)
    pred = rng.integers(0, 3, size=12)
    relabeled = (pred + 1) % 3
    assert evaluate(relabeled, truth).ari == pytest.approx(evaluate(pred, truth).ari)


def test_ari_degenerate_conventions():
    assert evaluate([0, 1, 2], [5, 6, 7]).ari == 1.0  # identical all-singleton partitions
    assert evaluate([0, 0, 0], [1, 1, 1]).ari == 1.0  # identical one-cluster partitions
    assert evaluate([0, 0, 0], [0, 1, 2]).ari == 0.0  # degenerate but different


def test_all_metrics_permutation_invariant():
    rng = make_rng(2)
    truth = rng.integers(0, 3, size=10)
    pred = rng.integers(0, 3, size=10)
    mapping = np.array([2, 0, 1])
    for key in ("acc", "nmi", "f_score", "ari"):
        want = getattr(evaluate(pred, truth), key)
        assert getattr(evaluate(mapping[pred], truth), key) == pytest.approx(want, abs=1e-12)
        assert getattr(evaluate(pred, mapping[truth]), key) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_small_partitions(n):
    parts = [np.array(p) for p in partitions_up_to(n, 3)]
    for pred in parts:
        for truth in parts:
            rep = evaluate(pred, truth)
            assert rep.acc == pytest.approx(acc_bruteforce(pred, truth), abs=1e-10)
            assert rep.nmi == pytest.approx(nmi_oracle(pred, truth), abs=1e-10)
            if n >= 2:
                assert rep.f_score == pytest.approx(f_score_oracle(pred, truth), abs=1e-10)
                assert rep.ari == pytest.approx(ari_oracle(pred, truth), abs=1e-10)


def _bits(value):
    return (type(value), np.float64(value).tobytes() if isinstance(value, float) else value)


def assert_bitwise_as_reference(pred, truth):
    """``evaluate`` gives the reference's values bit for bit."""
    want = {key: _bits(value) for key, value in metrics_reference(pred, truth).items()}
    assert {key: _bits(value) for key, value in evaluate(pred, truth).as_dict().items()} == want


def test_metrics_bitwise_as_reference_on_every_small_pair():
    # every pair of partitions of N <= 6 samples into at most 3 clusters, as in
    # the acceptance check; the random labels below take both orientations
    for n in range(1, 7):
        parts = [np.array(p) for p in partitions_up_to(n, 3)]
        for i, pred in enumerate(parts):
            for truth in parts[i:]:
                assert_bitwise_as_reference(pred, truth)


def test_metrics_bitwise_as_reference_on_random_labels():
    # up to 25 x 25 tables, so NMI sums well past the 8 terms from which
    # np.sum would add pairwise; labels are not contiguous, and pred has negative ones
    rng = make_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 401))
        pred_labels = rng.choice(1000, size=int(rng.integers(1, 26)), replace=False) - 500
        truth_labels = rng.choice(1000, size=int(rng.integers(1, 26)), replace=False)
        pred, truth = rng.choice(pred_labels, size=n), rng.choice(truth_labels, size=n)
        assert_bitwise_as_reference(pred, truth)
        # pred a coarsening of truth: every truth cluster sits in one pred cluster
        assert_bitwise_as_reference(truth % int(rng.integers(1, 6)), truth)


def test_evaluate_builds_one_table(monkeypatch):
    calls = []
    table = slrl.metrics._table
    monkeypatch.setattr(slrl.metrics, "_table", lambda p, t: calls.append(1) or table(p, t))
    evaluate([0, 0, 1, 1, 2], [1, 1, 0, 2, 2])
    assert len(calls) == 1


def test_evaluate_report_fields():
    rep = evaluate([0, 0, 1, 1], [0, 1, 1, 1])
    assert rep.n == 4 and rep.c_pred == 2 and rep.c_true == 2
    assert rep.acc == pytest.approx(0.75)
    assert 0.0 <= rep.nmi <= 1.0
    assert 0.0 <= rep.f_score <= 1.0
    assert -1.0 <= rep.ari <= 1.0


def test_report_text_round_trip():
    rep = evaluate([0, 1, 0, 1], [0, 1, 1, 0])
    text = rep.to_text()
    parsed = dict(line.split() for line in text.strip().splitlines())
    assert float(parsed["acc"]) == pytest.approx(rep.acc, abs=1e-6)
    assert int(parsed["n"]) == 4


def test_aggregate_rows_mean_std():
    reports = [evaluate([0, 1], [0, 1]), evaluate([0, 0], [0, 1])]
    text = aggregate_rows(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "metric,mean,std"
    row = dict((ln.split(",")[0], (float(ln.split(",")[1]), float(ln.split(",")[2])))
               for ln in lines[1:])
    assert row["acc"][0] == pytest.approx((1.0 + 0.5) / 2)
    assert row["acc"][1] == pytest.approx(0.25)


def test_aggregate_rows_empty_rejected():
    with pytest.raises(ParameterError):
        aggregate_rows([])
