"""Property test of ``train``: every config that ``validate`` accepts, on a tiny
synthetic dataset, returns a finite report or raises a typed slrl error, and
numpy warns of no overflow or invalid value on the way."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrl import errors
from slrl.data import synth_multiview
from slrl.train import TrainConfig, train

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
TYPED = (
    errors.ShapeError,
    errors.ParameterError,
    errors.FormatError,
    errors.NumericError,
    errors.DegenerateClusterError,
    errors.DivergenceError,
)
EPOCHS = st.integers(0, 3)

CONFIGS = st.builds(
    TrainConfig,
    latent_dim=st.integers(2, 6),
    k=st.integers(1, 8),
    gamma=st.sampled_from([0.0, 0.5, 10.0, 1e4, 1e300]),
    learning_rate=st.sampled_from([1e-3, 0.01, 0.5, 50.0, 1e300]),
    epochs=EPOCHS,
    heads=st.integers(1, 3),
    gat_layers=st.integers(0, 2),
    pretrain_epochs=EPOCHS,
    seed=st.integers(0, 3),
    clusters=st.one_of(st.none(), st.integers(1, 9)),
    early_stop_min_epochs=st.integers(0, 2),
)
# (clusters, samples per cluster, view dims, noise), at most 24 samples
DATASETS = st.tuples(
    st.integers(2, 4),
    st.integers(2, 6),
    st.lists(st.integers(2, 5), min_size=1, max_size=3),
    st.sampled_from([0.0, 0.1, 5.0]),
)


@FUZZ
@given(cfg=CONFIGS, data=DATASETS, data_seed=st.integers(0, 3))
# the centroids' step leaves them too far from every sample for a double: the
# final Q was 0/0 everywhere before soft_assign raised on it
@example(
    cfg=TrainConfig(latent_dim=5, k=1, gamma=1e300, learning_rate=50.0, epochs=1, heads=1,
                    pretrain_epochs=2, seed=0, early_stop_min_epochs=0),
    data=(2, 2, [2], 0.0),
    data_seed=0,
)
def test_train_returns_a_finite_report_or_a_typed_error(cfg, data, data_seed):
    cfg.validate()  # every draw is a config that validate accepts
    c, per, dims, noise = data
    ds = synth_multiview(c, per, dims, noise=noise, seed=data_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rep = train(ds, cfg)
        except TYPED:
            return
    for name in ("h", "ht", "q"):
        assert np.isfinite(getattr(rep, name)).all(), name
    assert np.isfinite(rep.loss_history).all()
    try:  # computed when read; a graph without Gaussian weights is a typed error
        assert np.isfinite(rep.graph.weights).all()
    except TYPED:
        pass
    assert len(rep.epochs) == rep.pretrain_epochs_run + rep.joint_epochs_run


@pytest.mark.parametrize("epochs", [0, 1])
def test_the_fuzzed_dataset_trains(epochs):
    # the property's data can train at all: its most common draw returns a report
    ds = synth_multiview(3, 4, [3, 2], noise=0.1, seed=0)
    cfg = TrainConfig(latent_dim=3, k=2, heads=1, epochs=epochs, pretrain_epochs=1)
    rep = train(ds, cfg)
    assert rep.joint_epochs_run == epochs and np.isfinite(rep.q).all()
