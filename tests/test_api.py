"""The public surface: every exported name resolves, and the settings are exactly
the ones some caller sets."""

import argparse
import ast
import importlib
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import slrl
from slrl.cli import build_parser, main
from slrl.data import synth_multiview
from slrl.gat import GatParams
from slrl.train import TrainConfig, train

MODULES = ["cluster", "data", "encoder", "gat", "graph", "metrics", "numerics", "train"]

SETTINGS = [
    "latent_dim",
    "k",
    "gamma",
    "learning_rate",
    "epochs",
    "heads",
    "gat_layers",
    "pretrain_epochs",
    "seed",
    "clusters",
    "early_stop_min_epochs",
]


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = slrl if module is None else importlib.import_module(f"slrl.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


# second entry points to the graph and attention stages, folded into
# build_graph and stack_forward/stack_backward; the train/held-out split,
# whose held-out part nothing scored; and the package's own thread cap,
# which restated the BLAS's thread variables; the decoder forward passes
# that ``reconstruct`` replaced; the edge kernel and sigma settings, which
# changed only the weights that nothing but graph.txt reads; the report's
# second names for ``final_eval`` and a slice of ``loss_history``; the
# report's per-epoch lists and worst gaps, which ``report.epochs`` holds; the
# spent check of a decoder pass that now runs forward and backward at once; the
# attention layer's activation and head-combine settings, since every layer
# averages its heads and applies a sigmoid; the re-seed of a cluster with
# no soft mass, which a strictly positive Q never has; second copies of
# the typed errors, the cluster count and the decoder field order, which
# ``SlrlError``, ``check_fit`` and ``DecoderParams`` state once; the
# single-score functions, since ``evaluate`` returns all four scores from one
# table; the one-view decoder init that ``init_decoders`` absorbed; the
# k-means and one-layer attention init that ``init_centroids`` and
# ``init_gat_stack`` absorbed, since only tests read k-means' labels and inertia;
# the adapters that listed an attention stack as (W, a) tuples and merged the
# two gradient sources, since ``stack_backward`` returns ``GatParams`` and
# ``_named`` walks parameters and gradients by one rule; and the dense attention
# layout with its size switch, since every graph attends through the one ELL
# adjacency, which also checks its own CSR pair.
# ``accuracy`` and ``nmi`` stay in ``slrl.metrics``, outside ``__all__``,
# because the benchmark's own tests import them
DELETED = [
    "build_gaussian", "build_dot", "gat_forward", "gat_backward", "split", "apply_thread_cap",
    "decode", "per_sample_reconstruction", "KERNELS", "check_kernel", "_resolve_kernel",
    "final_metrics", "joint_losses", "metrics_history", "q_rowsum_gap", "p_rowsum_gap",
    "alpha_rowsum_gap", "lc_min", "early_stop_reason", "_update_invariant_gaps", "_unspent",
    "ACTIVATIONS", "COMBINES", "_activate", "_activate_deriv", "_reseed_degenerate",
    "_KERNEL_ERRORS", "_resolve_clusters", "_DECODER_FIELDS", "pair_f_score", "ari",
    "init_decoder", "kmeans", "init_gat", "_gat_pairs", "_joint_grads", "_DENSE_MAX_N",
    "_DenseAdjacency", "_SparseAdjacency", "_adjacency", "_check_neighborhoods",
]
BENCHMARK_ONLY = ["accuracy", "nmi"]


def test_each_stage_has_one_entry_point():
    for module in [None] + MODULES:
        mod = slrl if module is None else importlib.import_module(f"slrl.{module}")
        assert not set(DELETED) & set(mod.__all__), mod.__name__
        assert not any(hasattr(mod, name) for name in DELETED), mod.__name__
    assert not hasattr(slrl.MultiViewDataset, "take")
    assert not any(hasattr(slrl.TrainReport, name) for name in DELETED)
    assert not set(BENCHMARK_ONLY) & (set(slrl.__all__) | set(slrl.metrics.__all__))
    assert not any(hasattr(slrl, name) for name in BENCHMARK_ONLY)
    assert [f.name for f in fields(sys.modules["slrl.train"].GradcheckReport)] == ["errors"]
    assert [f.name for f in fields(GatParams)] == ["w", "a"]
    assert not hasattr(GatParams, "f_out")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--synth", "3x6", "--split", "0.8"])
    assert {"build_graph", "stack_forward", "stack_backward"} <= set(slrl.__all__)


@pytest.mark.parametrize("command", ["train", "ablate", "sweep", "gradcheck", "synth"])
def test_view_count_is_only_the_length_of_view_dims(command):
    # --views restated the length of --view-dims
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--synth", "3x6", "--views", "2"])


@pytest.mark.parametrize("command", ["train", "ablate", "sweep", "gradcheck"])
@pytest.mark.parametrize("flag, value", [("--activation", "elu"), ("--combine", "concat")])
def test_attention_layer_has_no_activation_or_combine_flag(command, flag, value):
    # every attention layer averages its heads and applies a sigmoid
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--synth", "3x6", flag, value])


ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> set:
    """Top-level names of every module ``src/slrl`` imports, lazy imports included."""
    names = set()
    for path in (ROOT / "src" / "slrl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_exactly_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"slrl"}
    assert declared == third_party


def _parser_options() -> set:
    """Every option string of every ``slrl`` subcommand."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsers = subparsers.choices.values()
    return {opt for sub in parsers for action in sub._actions for opt in action.option_strings}


def test_every_readme_flag_is_an_option():
    # a flag that README still lists after its option is deleted
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text()))
    assert "--synth" in flags  # the pattern finds README's flags
    assert flags <= _parser_options(), sorted(flags - _parser_options())


def test_every_readme_cli_example_parses():
    # a flag that README gives to a subcommand that does not take it
    block = re.search(r"## CLI\n.*?```\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    examples = [line.split("#")[0].split() for line in block.group(1).splitlines()]
    assert len(examples) == 7 and all(argv[0] == "slrl" for argv in examples)
    for argv in examples:
        build_parser().parse_args(argv[1:])


def _slrl_imports(source: str) -> list:
    """(module, name) for every name that a ``from slrl... import`` in ``source`` imports."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slrl"
        for alias in node.names
    ]


def test_every_readme_python_block_runs(capsys):
    # a README example that no longer runs against the API it shows
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    quick_start, attention = {}, {}
    exec(compile(blocks[0], "README.md", "exec"), quick_start)
    assert quick_start["report"].final_eval.acc == float(capsys.readouterr().out.split()[-1])
    # the attention block takes a latent matrix h (N, 64) and the gradient upstream
    rng = np.random.default_rng(0)
    attention.update(h=rng.normal(size=(40, 64)), upstream=rng.normal(size=(40, 64)))
    exec(compile(blocks[1], "README.md", "exec"), attention)
    [grads] = attention["layer_grads"]
    assert isinstance(grads, GatParams) and grads.heads == 4
    assert attention["grad_w0"].shape == (64, 64) and attention["grad_h"].shape == (40, 64)


def test_every_readme_import_resolves():
    # a deleted name that README imports
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    names = [pair for block in blocks for pair in _slrl_imports(block)]
    assert ("slrl", "train") in names  # the pattern finds README's imports
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"README imports {module}.{name}"


def test_every_slrl_name_the_benchmark_imports_resolves():
    # tier 1 runs only bench/tests, so a deleted name that the benchmark itself
    # imports would otherwise fail only when the benchmark runs
    names = [
        (path.name, *pair)
        for path in sorted((ROOT / "bench").rglob("*.py"))
        for pair in _slrl_imports(path.read_text())
    ]
    assert ("test_bench_checks.py", "slrl.metrics", "nmi") in names
    for path, module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{path} imports {module}.{name}"


def test_train_config_holds_exactly_the_settings_callers_set():
    assert [f.name for f in fields(TrainConfig)] == SETTINGS


def test_train_manifest_records_every_setting(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--synth", "3x6", "--latent-dim", "4", "--k", "2", "--heads", "1",
                 "--pretrain-epochs", "1", "--epochs", "1", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert list(manifest["config"]) == SETTINGS


def test_the_report_names_the_benchmark_reads_resolve():
    # tier 1 never runs the benchmark's output checks, so a renamed report field
    # would otherwise fail only when the benchmark runs
    source = (ROOT / "bench" / "workloads.py").read_text()
    names = set(re.findall(r"\breport\.(\w+)", source))
    assert {"lr_history", "lc_history", "loss_history", "early_stopped_at", "graph"} <= names
    cfg = TrainConfig(latent_dim=4, k=2, heads=1, pretrain_epochs=2, epochs=3)
    report = train(synth_multiview(3, 6, [4, 4], seed=0), cfg)
    for name in names:
        getattr(report, name)
    graph_names = re.findall(r"\breport\.graph\.(\w+)", source)
    assert "nbrs" in graph_names
    for name in graph_names:
        getattr(report.graph, name)
    assert (report.pretrain_epochs_run, report.joint_epochs_run) == (2, 3)
    assert report.early_stopped_at is None
    for column in (report.lr_history, report.lc_history, report.loss_history):
        assert isinstance(column, list) and len(column) == 5
        assert all(isinstance(x, float) for x in column)
