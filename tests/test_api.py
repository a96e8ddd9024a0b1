"""The public surface: every exported name resolves, and the settings are exactly
the ones some caller sets."""

import importlib
import json
from dataclasses import fields

import pytest

import slrl
from slrl.cli import main
from slrl.train import TrainConfig

MODULES = ["cluster", "data", "encoder", "gat", "graph", "metrics", "numerics", "train"]

SETTINGS = [
    "latent_dim",
    "k",
    "gamma",
    "learning_rate",
    "epochs",
    "heads",
    "gat_layers",
    "activation",
    "combine",
    "pretrain_epochs",
    "seed",
    "kernel",
    "sigma",
    "clusters",
    "early_stop_min_epochs",
]


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = slrl if module is None else importlib.import_module(f"slrl.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_train_config_holds_exactly_the_settings_callers_set():
    assert [f.name for f in fields(TrainConfig)] == SETTINGS


def test_train_manifest_records_every_setting(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--synth", "3x6", "--latent-dim", "4", "--k", "2", "--heads", "1",
                 "--pretrain-epochs", "1", "--epochs", "1", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert list(manifest["config"]) == SETTINGS
