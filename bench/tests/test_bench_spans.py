"""Layer spans: counts match the training loop, self times add up, patches come off."""

import sys
import time

import pytest

import slrl.cli
import slrl.graph
from slrl.data import synth_multiview
from slrl.train import TrainConfig
from spans import SPAN_NAMES, Tracer


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("train"):
        with tracer.span("graph.build"):
            time.sleep(0.02)
        time.sleep(0.01)
    self_s = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert self_s["graph.build"] >= 0.02
    assert self_s["train"] == pytest.approx(total - self_s["graph.build"])
    assert set(SPAN_NAMES) <= set(self_s)


def test_counts_follow_the_training_loop_and_restore_puts_originals_back():
    originals = (slrl.graph.build_graph, slrl.graph.NeighborGraph.neighborhoods, slrl.cli.run_train)
    pretrain, epochs = 3, 4
    ds = synth_multiview(2, 6, [3, 3], seed=0)
    cfg = TrainConfig(latent_dim=4, k=3, heads=2, pretrain_epochs=pretrain, epochs=epochs,
                      early_stop_min_epochs=10**9)
    tracer = Tracer().install(cli=True)
    try:
        sys.modules["slrl.train"].train(ds, cfg)
    finally:
        tracer.restore()
    assert (slrl.graph.build_graph, slrl.graph.NeighborGraph.neighborhoods, slrl.cli.run_train) == originals

    counts = tracer.counts
    # one graph before the joint phase, one rebuild per later epoch, one for the final state
    assert counts["graph.build.calls"] == epochs + 1
    assert counts["graph.nbhd.calls"] == epochs + 1
    assert counts["gat.forward.calls"] == epochs + 2
    assert counts["gat.backward.calls"] == epochs
    assert counts["encoder.loss.calls"] == pretrain + epochs
    assert counts["encoder.grads.calls"] == pretrain + epochs
    assert counts["metrics.evaluate.calls"] == epochs + 1
    assert counts["train.calls"] == 1
    assert counts["numerics.finite_checks"] > 0 and counts["numerics.checked_bytes"] > 0

    self_s = tracer.self_times()
    train_span = next(s for s in tracer.spans if s[0] == "train")
    assert sum(self_s.values()) == pytest.approx(train_span[2] - train_span[1])
    assert all(v >= 0.0 for v in self_s.values())
