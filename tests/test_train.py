import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import is_dataclass, replace

from slrl.data import synth_multiview
import slrl.cli
import slrl.cluster
import slrl.encoder
import slrl.errors
import slrl.gat
import slrl.graph
from slrl.errors import FormatError, NumericError, ParameterError, ShapeError, SlrlError
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
        (dict(heads=0), "need heads >= 1 and gat_layers >= 0"),
        (dict(gat_layers=-1), "need heads >= 1 and gat_layers >= 0"),
        (dict(pretrain_epochs=-1), "epoch counts must be >= 0"),
        (dict(latent_dim=1), "latent_dim must be >= 2"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
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


# each setting of the wrong type trained as its truncation (seed=1.5 as seed=1,
# clusters=2.5 as 2), passed unchanged (pretrain_epochs=True), or raised a raw
# TypeError deep in the run
@pytest.mark.parametrize(
    "field, value, what",
    [
        ("seed", 1.5, "an integer"),
        ("clusters", 2.5, "an integer"),
        ("clusters", True, "an integer"),
        ("early_stop_min_epochs", 1.5, "an integer"),
        ("pretrain_epochs", True, "an integer"),
        ("k", 2.5, "an integer"),
        ("k", "3", "an integer"),
        ("heads", 2.0, "an integer"),
        ("epochs", 2.5, "an integer"),
        ("latent_dim", 8.0, "an integer"),
        ("gat_layers", 1.5, "an integer"),
        ("gamma", "1", "a real number"),
        ("gamma", None, "a real number"),
        ("learning_rate", None, "a real number"),
        ("learning_rate", 1j, "a real number"),
    ],
)
def test_a_setting_of_the_wrong_type_is_a_parameter_error(monkeypatch, field, value, what):
    message = f"^{field} must be {what}, got {re.escape(repr(value))}$"
    with pytest.raises(ParameterError, match=message):
        small_cfg(**{field: value}).validate()
    monkeypatch.setattr(slrl.encoder, "reconstruction_grads", lambda *a: pytest.fail("trained"))
    with pytest.raises(ParameterError, match=message):
        train(small_ds(), small_cfg(**{field: value}))


def test_numpy_and_integer_valued_settings_are_accepted():
    # numpy integers for the int fields, any real number for gamma and learning_rate
    cfg = small_cfg(seed=np.int64(0), k=np.int32(3), clusters=np.uint8(3), epochs=np.int64(15),
                    gamma=10, learning_rate=np.float64(0.01))
    cfg.validate()
    want = train(small_ds(), small_cfg(clusters=3))
    assert np.array_equal(train(small_ds(), cfg).q, want.q)


def test_numpy_float_settings_train_like_the_floats_they_round_to():
    # numpy 2 computes lr * N and gamma / N at float32 precision for float32 settings
    lr, gamma = np.float32(0.01), np.float32(10.0)
    got = train(small_ds(), small_cfg(learning_rate=lr, gamma=gamma))
    want = train(small_ds(), small_cfg(learning_rate=float(lr), gamma=float(gamma)))
    for name in ("h", "ht", "q", "centroids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.loss_history == want.loss_history


def test_check_fit_needs_clusters_without_labels():
    ds = replace(small_ds(), labels=None)
    with pytest.raises(ParameterError, match="no labels"):
        check_fit(ds, small_cfg())
    assert check_fit(ds, small_cfg(clusters=3)) == 3
    assert check_fit(small_ds(), small_cfg()) == small_ds().n_clusters()


def test_zero_joint_epochs_keeps_pretrained_state():
    ds = small_ds()
    full = train(ds, small_cfg(epochs=0))
    assert full.joint_epochs_run == 0
    assert len(full.loss_history) == 5
    assert all(r.metrics is None for r in full.epochs)
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
    assert len(rep.epochs) == total
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
    joint = rep.epochs[rep.pretrain_epochs_run :]
    assert max(r.q_gap for r in joint) < 1e-9
    assert max(r.p_gap for r in joint) < 1e-9
    assert max(r.alpha_gap for r in joint) < 1e-9
    assert min(r.lc for r in joint) >= 0.0


def test_per_epoch_metrics_present_with_labels():
    ds = small_ds()
    rep = train(ds, small_cfg())
    joint = [r.metrics for r in rep.epochs[rep.pretrain_epochs_run :]]
    assert all(m is not None for m in joint)
    assert rep.final_eval is not None


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
        dict(gat_layers=2),
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
    assert a.errors == b.errors


def test_checkpoint_round_trip(tmp_path):
    ds = small_ds()
    rep = train(ds, small_cfg(gat_layers=2))
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
    assert np.array_equal(seen["live"], seen["before"])  # the centroids did not move


def test_shape_error_in_an_epoch_names_the_epoch(monkeypatch):
    def misshapen(ht, centroids):
        raise ShapeError("centroids do not match ht")

    monkeypatch.setattr(slrl.cluster, "soft_assign", misshapen)
    with pytest.raises(ShapeError, match="^joint epoch 1: centroids do not match ht$"):
        train(small_ds(), small_cfg())


def test_every_typed_error_has_one_root_the_cli_maps():
    # a new error class that the CLI does not map to exit 2 fails here
    bases = {
        "ShapeError": ValueError,
        "ParameterError": ValueError,
        "FormatError": ValueError,
        "NumericError": ArithmeticError,
        "DegenerateClusterError": RuntimeError,
        "DivergenceError": ValueError,
    }
    classes = {
        name: obj
        for name, obj in vars(slrl.errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj is not SlrlError
    }
    assert classes.keys() == bases.keys()
    for name, cls in classes.items():
        assert issubclass(cls, SlrlError) and issubclass(cls, bases[name]), name
        assert issubclass(cls, slrl.cli._ERRORS), name


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
    assert float(last[4]) == pytest.approx(rep.epochs[-1].metrics.acc, abs=1e-6)


def test_early_stop_fields_consistent():
    ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=0)
    rep = train(ds, TrainConfig(seed=0))
    assert rep.early_stopped_at is not None
    assert rep.epochs[-1].stop in ("loss", "assignments")
    assert rep.joint_epochs_run == rep.early_stopped_at
    assert rep.joint_epochs_run < 200


def test_records_replay_the_early_stop_monitors(monkeypatch):
    # each joint epoch's hard assignments, as train hands them to the metrics
    seen = []
    train_mod = sys.modules["slrl.train"]
    epoch_metrics = train_mod._epoch_metrics
    monkeypatch.setattr(
        train_mod, "_epoch_metrics", lambda a, labels: seen.append(a) or epoch_metrics(a, labels)
    )
    rep = train(synth_multiview(3, 50, [8, 8], noise=0.05, seed=0), TrainConfig(seed=0))
    pre, joint = rep.epochs[:50], rep.epochs[50:]
    assert all(r.phase == "pretrain" and r.metrics is None and r.churn is None for r in pre)
    assert all(r.q_gap is None and r.stop is None for r in pre)
    assert all(r.phase == "joint" for r in joint) and len(seen) == len(joint) + 1
    best, no_improve, stable = np.inf, 0, 0
    for epoch, r in enumerate(joint, start=1):
        churn = None if epoch == 1 else float(np.mean(seen[epoch - 1] != seen[epoch - 2]))
        assert r.churn == churn
        if r.loss < best * (1.0 - 1e-6):
            best, no_improve = r.loss, 0
        else:
            no_improve += 1
        stable = stable + 1 if epoch > 1 and churn <= 1e-3 else 0
        assert (r.best_loss, r.no_improve, r.stable) == (best, no_improve, stable)
        assert (r.stop is None) == (epoch < len(joint))
    assert joint[-1].stop == ("loss" if no_improve >= 10 else "assignments")
    assert max(no_improve, stable) >= 10 and len(joint) >= 20


def test_a_latent_of_mostly_identical_rows_trains(monkeypatch):
    # the setup graph's median selected distance is 0, so it has no Gaussian
    # weights; attention reads only its edges
    def init_latent(n, f, seed):
        h = np.random.default_rng(seed).normal(size=(n, f))
        h[: 3 * n // 4] = h[0]
        return h

    monkeypatch.setattr(slrl.encoder, "init_latent", init_latent)
    rep = train(small_ds(), small_cfg(pretrain_epochs=0, epochs=2))
    assert rep.joint_epochs_run == 2 and np.isfinite(rep.q).all()


def _arrays_in(value) -> list:
    """Every ndarray in ``value``, a dataclass, list or dict, searched recursively."""
    if isinstance(value, np.ndarray):
        return [value]
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays_in(v)]
    return []


def test_records_hold_no_array():
    rep = train(small_ds(), small_cfg())
    assert len(rep.epochs) == 20 and _arrays_in(rep.epochs) == []
    assert _arrays_in([rep.final_eval, rep.h])  # the search does find an array
    for column in (rep.lr_history, rep.lc_history, rep.loss_history):
        assert isinstance(column, list) and all(isinstance(x, float) for x in column)


@pytest.mark.parametrize(
    "epochs, where", [(200, r"joint epoch \d+"), (1, "final state after 1 joint epochs")]
)
def test_overflowing_run_names_the_epoch(epochs, where):
    # a clustering weight this large overflows the first step's result: the next
    # graph build cannot hold its squared distances
    ds = synth_multiview(3, 20, [8, 8], noise=0.05, seed=0)
    message = "h is too large: its squared distances overflow"
    with pytest.raises(NumericError, match=f"^{where}: {message}$"):
        train(ds, TrainConfig(k=3, gamma=1e300, epochs=epochs))


def test_step_gets_fresh_gradients(monkeypatch):
    # _step scales every gradient in place, so none may alias a parameter or a cache
    train_mod = sys.modules["slrl.train"]
    cached, checked = [], []
    forward, step = slrl.gat.stack_forward, train_mod._step

    def recording_forward(stack, h, nbhd):
        out, caches = forward(stack, h, nbhd)
        for c in caches:
            cached.extend([c.h_in, c.out, c.row_sums])
        return out, caches

    def checking_step(params, grads, scales):
        # parameters and gradients list by one rule: pair by pair, one name and one shape
        for (group, name, p), (g_group, g_name, g) in zip(params, grads, strict=True):
            assert (g_group, g_name, g.shape) == (group, name, p.shape)
        arrays = [g for _, _, g in grads]
        for i, g in enumerate(arrays):
            others = [p for _, _, p in params] + cached + arrays[:i] + arrays[i + 1 :]
            assert not any(np.shares_memory(g, x) for x in others)
        checked.append([name for _, name, _ in grads])
        step(params, grads, scales)

    monkeypatch.setattr(slrl.gat, "stack_forward", recording_forward)
    monkeypatch.setattr(train_mod, "_step", checking_step)
    train(small_ds(), small_cfg(epochs=3, pretrain_epochs=2, gat_layers=2))
    assert len(checked) == 5 and cached
    # the joint steps list both layers' heads (2 heads each), w before a
    heads = [f"gat{i}.head{k}.{f}" for i in range(2) for f in "wa" for k in range(2)]
    assert checked[:2] == [["h"]] * 2
    assert checked[2:] == [["h", *heads, "centroids"]] * 3


@pytest.mark.parametrize("pretrain, where", [(2, "pretrain epoch 1"), (0, "joint epoch 1")])
def test_a_non_finite_step_in_the_last_view_stops_that_array(monkeypatch, pretrain, where):
    # the decoder pass steps each view's decoder from one gradient workspace,
    # which must alias no parameter; a non-finite step stops at its own array
    train_mod = sys.modules["slrl.train"]
    model, seen = {}, {}
    init_model, descend = train_mod._init_model, slrl.encoder.descend

    def recording_init(*args):
        model["h"], model["decoders"], stack = init_model(*args)
        model["gat"] = [x for layer in stack for x in [*layer.w, *layer.a]]
        return model["h"], model["decoders"], stack

    def parameters():
        return [model["h"], *model["gat"]] + [p for t in model["decoders"] for p in vars(t).values()]

    def poisoning(value, grad, scale, name):
        assert not any(np.shares_memory(grad, p) for p in parameters())
        seen.setdefault("names", []).append(name)
        if name == "group 'decoders' (decoder1.w2)":
            seen["live"], seen["before"], seen["h"] = value, value.copy(), model["h"].copy()
            grad[0, 0] = np.inf
        descend(value, grad, scale, name)

    monkeypatch.setattr(train_mod, "_init_model", recording_init)
    monkeypatch.setattr(slrl.encoder, "descend", poisoning)
    message = rf"^{where}: non-finite gradient in group 'decoders' \(decoder1\.w2\)$"
    with pytest.raises(NumericError, match=message):
        train(small_ds(), small_cfg(pretrain_epochs=pretrain))
    assert seen["names"] == [f"group 'decoders' (decoder{v}.{f})" for v in (0, 1)
                             for f in ("w1", "b1", "w2", "b2")][:7]
    assert np.array_equal(seen["live"], seen["before"])  # decoder1.w2 did not move
    assert np.array_equal(model["h"], seen["h"])  # nor did h
    assert all(np.isfinite(p).all() for p in parameters())


def test_one_set_of_attention_caches_lives_at_a_time(monkeypatch):
    # no cache of an earlier forward pass is reachable at a graph build or a forward pass
    live = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, slrl.gat._LayerCache) for o in gc.get_objects()))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(slrl.graph, "build_graph", counting(slrl.graph.build_graph))
    monkeypatch.setattr(slrl.gat, "stack_forward", counting(slrl.gat.stack_forward))
    report = train(small_ds(), small_cfg(epochs=4, gat_layers=2))
    assert report.joint_epochs_run == 4
    assert live == [0] * (2 * 4 + 3)


def test_no_attention_cache_lives_at_a_decoder_pass(monkeypatch):
    # a joint epoch drops its caches after the attention backward pass, before reconstruct
    live = []
    reconstruct = slrl.encoder.reconstruct

    def counting(*args, **kwargs):
        gc.collect()
        live.append(sum(isinstance(o, slrl.gat._LayerCache) for o in gc.get_objects()))
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(slrl.encoder, "reconstruct", counting)
    report = train(small_ds(), small_cfg(epochs=4, gat_layers=2, early_stop_min_epochs=10**9))
    assert report.joint_epochs_run == 4
    assert live == [0] * (report.pretrain_epochs_run + 4)


def test_overflowing_step_names_its_own_epoch(monkeypatch):
    # a finite gradient whose scaled step overflows stops the epoch that takes it
    train_mod = sys.modules["slrl.train"]
    seen = {}
    init_model = train_mod._init_model

    def recording_init(*args):
        model = init_model(*args)
        seen["live"], seen["before"] = model[0], model[0].copy()
        return model

    monkeypatch.setattr(train_mod, "_init_model", recording_init)
    message = r"^pretrain epoch 1: non-finite gradient in group 'h' \(h\)$"
    with pytest.raises(NumericError, match=message):
        train(small_ds(), small_cfg(learning_rate=1e308, pretrain_epochs=2))
    assert np.array_equal(seen["live"], seen["before"])  # h did not move


def test_each_epoch_makes_one_decoder_forward_pass(monkeypatch):
    names = ("reconstruct", "reconstruction_loss", "reconstruction_grads")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(slrl.encoder, name, counting(name, getattr(slrl.encoder, name)))
    report = train(small_ds(), small_cfg(pretrain_epochs=4, epochs=6, early_stop_min_epochs=10**9))
    assert report.joint_epochs_run == 6
    assert calls == dict.fromkeys(names, 4 + 6)


def test_no_decoder_workspace_lives_at_a_graph_build_or_an_attention_backward_pass(monkeypatch):
    # the pretrain workspace ends with its phase; a joint epoch's goes before stack_backward
    live = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, slrl.encoder.Reconstruction) for o in gc.get_objects()))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(slrl.graph, "build_graph", counting(slrl.graph.build_graph))
    monkeypatch.setattr(slrl.gat, "stack_backward", counting(slrl.gat.stack_backward))
    report = train(small_ds(), small_cfg(epochs=4, early_stop_min_epochs=10**9))
    assert report.joint_epochs_run == 4
    assert live == [0] * (4 + 1 + 4)


# one training at N = 300; the report's outputs go to an .npz file
_THREADS_RUN = """
import sys
import numpy as np
from slrl.data import synth_multiview
from slrl.train import TrainConfig, train

ds = synth_multiview(3, 100, [8, 8], noise=0.05, seed=0)
rep = train(ds, TrainConfig(seed=0, pretrain_epochs=3, epochs=3))
np.savez(sys.argv[1], q=rep.q, labels=rep.labels_pred, indptr=rep.graph.indptr,
         indices=rep.graph.indices)
"""
# q moved by 1.6e-15 across 1 and 2 OpenBLAS threads at N = 1500
_THREADS_Q_TOL = 1e-12


def test_results_hold_across_blas_thread_counts(tmp_path):
    # a run's bits depend on the BLAS thread count; its labels and graph do not
    src = str(Path(slrl.graph.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREADS_RUN, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(np.load(out))
    one, two = runs
    assert np.array_equal(one["labels"], two["labels"])
    assert np.array_equal(one["indptr"], two["indptr"])
    assert np.array_equal(one["indices"], two["indices"])
    assert np.max(np.abs(one["q"] - two["q"])) <= _THREADS_Q_TOL
