import numpy as np
import pytest

from dataclasses import replace

from slrl.data import synth_multiview
import slrl.cluster
import slrl.encoder
from slrl.errors import FormatError, NumericError, ParameterError
from slrl.train import (
    TrainConfig,
    ablate,
    check_fit,
    gradcheck,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
    write_loss_log,
)


def small_cfg(**kw):
    base = dict(
        latent_dim=6,
        k=3,
        heads=2,
        gat_layers=1,
        epochs=15,
        pretrain_epochs=5,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_ds(seed=0, noise=0.1):
    return synth_multiview(3, 6, [4, 3], noise=noise, seed=seed)


def test_total_loss_arithmetic():
    assert total_loss(1.5, 0.2, 10.0) == pytest.approx(3.5)
    assert total_loss(0.7, 0.3, 0.0) == pytest.approx(0.7)
    assert total_loss(0.0, 0.0, 123.0) == 0.0


def test_total_loss_rejects_non_finite():
    with pytest.raises(NumericError):
        total_loss(float("nan"), 0.0, 1.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(latent_dim=1).validate()
    with pytest.raises(ParameterError):
        TrainConfig(gamma=-1.0).validate()
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0).validate()


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(k=0), "k must be >= 1"),
        (dict(k=18), "k=18 too large for 18 samples"),
        (dict(clusters=19), r"cluster count 19 outside \[2, 18\]"),
        (dict(clusters=1), r"cluster count 1 outside \[2, 18\]"),
    ],
)
def test_settings_that_do_not_fit_fail_before_any_epoch(monkeypatch, fields, message):
    ds = small_ds()
    cfg = small_cfg(**fields)
    with pytest.raises(ParameterError, match=message):
        check_fit(ds, cfg)
    monkeypatch.setattr(slrl.encoder, "reconstruction_grads", lambda *a: pytest.fail("trained"))
    for run in (train, ablate):
        with pytest.raises(ParameterError, match=message):
            run(ds, cfg)


def test_check_fit_needs_clusters_without_labels():
    ds = replace(small_ds(), labels=None)
    with pytest.raises(ParameterError, match="no labels"):
        check_fit(ds, small_cfg())
    check_fit(ds, small_cfg(clusters=3))


def test_zero_joint_epochs_keeps_pretrained_state():
    ds = small_ds()
    full = train(ds, small_cfg(epochs=0))
    assert full.joint_epochs_run == 0
    assert len(full.loss_history) == 5
    assert all(m is None for m in full.metrics_history)
    # H must equal a pretraining-only run's H bit for bit
    again = train(ds, small_cfg(epochs=0))
    assert np.array_equal(full.h, again.h)


def test_history_lengths_match_epochs_run():
    ds = small_ds()
    rep = train(ds, small_cfg())
    total = rep.pretrain_epochs_run + rep.joint_epochs_run
    assert len(rep.loss_history) == total
    assert len(rep.lr_history) == total
    assert len(rep.lc_history) == total
    assert len(rep.metrics_history) == total
    assert all(np.isfinite(rep.loss_history))


def test_deterministic_reports_bitwise():
    ds = small_ds(seed=3)
    a = train(ds, small_cfg(seed=3))
    b = train(ds, small_cfg(seed=3))
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.ht, b.ht)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels_pred, b.labels_pred)


def test_cluster_count_from_labels_or_config():
    ds = small_ds()
    unlabeled = type(ds)(views=ds.views, labels=None)
    with pytest.raises(ParameterError):
        train(unlabeled, small_cfg())
    rep = train(unlabeled, small_cfg(clusters=3))
    assert rep.q.shape == (ds.n_samples, 3)


def test_pretrain_loss_nonincreasing_after_burn_in():
    ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=0)
    rep = train(ds, TrainConfig(seed=0, epochs=0))
    lr_hist = rep.lr_history
    for i in range(3, len(lr_hist) - 1):
        assert lr_hist[i + 1] <= lr_hist[i] + 1e-9


def test_invariant_gaps_are_tracked():
    ds = small_ds()
    rep = train(ds, small_cfg())
    assert rep.q_rowsum_gap < 1e-9
    assert rep.p_rowsum_gap < 1e-9
    assert rep.alpha_rowsum_gap < 1e-9
    assert rep.lc_min >= 0.0


def test_per_epoch_metrics_present_with_labels():
    ds = small_ds()
    rep = train(ds, small_cfg())
    joint = rep.metrics_history[rep.pretrain_epochs_run :]
    assert all(m is not None for m in joint)
    assert rep.final_metrics() is not None


def test_ablate_produces_three_reports():
    ds = small_ds()
    reps = ablate(ds, small_cfg())
    assert set(reps) == {"a", "b", "c"}
    # mode (a) has no attention layers: structured representation equals H
    assert np.array_equal(reps["a"].ht, reps["a"].h)
    assert reps["b"].ht.shape == reps["b"].h.shape


def test_ablate_mode_a_equals_definitional_config():
    from dataclasses import replace

    ds = small_ds()
    cfg = small_cfg()
    reps = ablate(ds, cfg)
    direct = train(ds, replace(cfg, gamma=0.0, gat_layers=0))
    assert reps["a"].loss_history == direct.loss_history
    assert np.array_equal(reps["a"].labels_pred, direct.labels_pred)


def test_gamma_zero_freezes_gat_and_centroids():
    ds = small_ds()
    cfg = small_cfg(gamma=0.0)
    rep = train(ds, cfg)
    from slrl.gat import init_gat_stack

    fresh = init_gat_stack(cfg.gat_layers, cfg.latent_dim, cfg.latent_dim, cfg.heads, cfg.seed + 2)
    for trained, init in zip(rep.gat_stack, fresh):
        for k in range(trained.heads):
            assert np.array_equal(trained.w[k], init.w[k])
            assert np.array_equal(trained.a[k], init.a[k])


def test_gradcheck_all_groups_pass():
    ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=0)  # N = 12, two views
    stacks = [
        dict(gat_layers=1),
        dict(gat_layers=2, combine="concat", activation="elu"),
        dict(gat_layers=0),
    ]
    for stack in stacks:
        rep = gradcheck(ds, TrainConfig(latent_dim=5, k=3, heads=2, seed=0, **stack))
        assert list(rep.errors) == ["h", "decoders", "gat", "centroids"], stack
        assert rep.worst < 1e-4, stack
        assert rep.ok()


def test_gradcheck_gamma_zero_centroid_grad_exactly_zero():
    ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=0)
    cfg = TrainConfig(latent_dim=5, k=3, heads=2, gat_layers=1, seed=0, gamma=0.0)
    rep = gradcheck(ds, cfg)
    assert rep.errors["centroids"] == 0.0
    assert rep.errors["gat"] == 0.0
    assert rep.worst < 1e-4


def test_gradcheck_rejects_large_instances():
    ds = synth_multiview(3, 20, [4, 3], noise=0.1, seed=0)  # N = 60
    with pytest.raises(ParameterError):
        gradcheck(ds, TrainConfig(latent_dim=5, k=3, seed=0))


def test_gradcheck_loss_reproducible():
    ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=1)
    cfg = TrainConfig(latent_dim=5, k=3, heads=2, gat_layers=1, seed=1)
    a = gradcheck(ds, cfg)
    b = gradcheck(ds, cfg)
    assert a.errors == b.errors and a.seed_used == b.seed_used


def test_checkpoint_round_trip(tmp_path):
    ds = small_ds()
    rep = train(ds, small_cfg(gat_layers=2, combine="concat", activation="elu"))
    save_checkpoint(rep, tmp_path / "ckpt")
    back = load_checkpoint(tmp_path / "ckpt")
    # every trainable array, listed here by hand, plus the two outputs
    want = {"h": rep.h, "centroids": rep.centroids, "ht": rep.ht, "q": rep.q}
    for v, theta in enumerate(rep.decoders):
        for field in ("w1", "b1", "w2", "b2"):
            want[f"decoder{v}.{field}"] = getattr(theta, field)
    for layer_idx, layer in enumerate(rep.gat_stack):
        for k in range(layer.heads):
            want[f"gat{layer_idx}.head{k}.w"] = layer.w[k]
            want[f"gat{layer_idx}.head{k}.a"] = layer.a[k]
    assert len(rep.gat_stack) == 2 and len(want) == 4 + 4 * 2 + 2 * 2 * 2
    assert set(back) == set(want)
    for name, array in want.items():
        assert np.array_equal(back[name], np.atleast_2d(array)), name


def test_checkpoint_malformed_index_line(tmp_path):
    ds = small_ds()
    save_checkpoint(train(ds, small_cfg(epochs=1)), tmp_path / "ckpt")
    (tmp_path / "ckpt" / "index.txt").write_text("h h.mvm\nh\n")
    with pytest.raises(FormatError, match="line 2: expected 'name file', got 'h'"):
        load_checkpoint(tmp_path / "ckpt")


def test_non_finite_joint_gradient_stops_before_the_step(monkeypatch):
    seen = {}
    original = slrl.cluster.cluster_grads

    def overflowing(ht, centroids, p):
        seen["live"], seen["before"] = centroids, centroids.copy()
        grad_ht, grad_mu = original(ht, centroids, p)
        grad_mu[0, 0] = np.inf
        return grad_ht, grad_mu

    monkeypatch.setattr(slrl.cluster, "cluster_grads", overflowing)
    with pytest.raises(NumericError, match="joint epoch 1: non-finite gradient in group 'centroids'"):
        train(small_ds(), small_cfg())
    assert np.array_equal(seen["live"], seen["before"])  # no array moved


def test_loss_log_format(tmp_path):
    ds = small_ds()
    rep = train(ds, small_cfg())
    path = tmp_path / "loss.csv"
    write_loss_log(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,L_r,L_c,L,ACC,NMI,F,ARI"
    assert len(lines) == 1 + len(rep.loss_history)
    first = lines[1].split(",")
    assert first[4] == ""  # pretrain epochs carry no metrics
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(rep.metrics_history[-1].acc, abs=1e-6)


def test_early_stop_fields_consistent():
    ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=0)
    rep = train(ds, TrainConfig(seed=0))
    assert rep.early_stopped_at is not None
    assert rep.early_stop_reason in ("loss", "assignments")
    assert rep.joint_epochs_run == rep.early_stopped_at
    assert rep.joint_epochs_run < 200
