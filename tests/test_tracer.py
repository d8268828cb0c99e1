"""The benchmark's outside tracer still finds the training and selection
layers.

``perfbench/tracer.py`` wraps slicepick functions by name and counts work
from their arguments and results, so renaming one of them, or changing what
it returns, silently empties a per-layer metric of
``perfbench/run.py --trace 1``. This test loads the tracer read-only (no
bytecode is written next to it) and runs a tiny training and embedding, a
tiny experiment, serial and on two worker processes, and the ``stats``,
``select`` and ``ablate`` commands under it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from slicepick import (
    RoundPlan,
    TrainConfig,
    cli,
    data,
    encoder,
    gcle,
    pipeline,
    preset_loss_config,
    sampler,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
KINDS = ["random", "coreset_raw", "coreset_learned"]


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_training_layers_are_traced_and_restored(tracer_module, tiny_ds):
    ds, _ = tiny_ds
    pixel_matrix = data.DatasetIndex.pixel_matrix
    loss_cfg = preset_loss_config({"ntxent", "patient", "volume"})
    # two tuples of three patients a batch: a patient can be left alone with tuples
    train_cfg = TrainConfig(epochs=3, batch_size=6, hidden=(4,), rep_dim=3, proj_dim=2, seed=1)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = encoder.train(ds, loss_cfg, train_cfg)
        encoder.embed_all(result.params, ds)
    finally:
        tracer.restore()
    names = {span[1] for span in tracer.spans}
    assert {
        "sampler.build_epoch", "losses.loss_and_grad", "losses.LossBatch",
        "encoder.augment_batch", "data.pixel_matrix", "encoder.train", "encoder.embed_all",
        "encoder.forward",
    } <= names
    # the anchors no batch holds, counted from each epoch's plan rebuilt untraced
    dropped = 0
    for epoch in range(train_cfg.epochs):
        plan = sampler.build_epoch(
            ds, loss_cfg.enabled_groups, result.config.batch_size,
            encoder.epoch_seed(train_cfg.seed, epoch),
        )
        batches, tuples, _ = plan.batches.shape
        dropped += ds.n - batches * tuples
    assert dropped > 0
    assert tracer.counts["sampler.anchors_dropped"] == dropped
    assert tracer_module.leftovers() == []
    assert data.DatasetIndex.pixel_matrix is pixel_matrix


def test_selection_counters_are_traced(tracer_module, tiny_ds):
    ds, labels = tiny_ds
    learned = dict(
        loss=preset_loss_config({"ntxent", "patient", "volume"}),
        train=TrainConfig(epochs=1, hidden=(4,), rep_dim=3, proj_dim=2),
    )
    plan = RoundPlan(fractions=(0.25, 0.5), n_repeats=1, seed=3)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        report = pipeline.run_experiment(ds, labels, KINDS, plan, **learned)
    finally:
        tracer.restore()
    names = {span[1] for span in tracer.spans}
    assert {"coreset.k_center_greedy", "pipeline.probe_accuracy"} <= names
    picks = sum(
        len(report.entry(name, 0, 1).selected) for name in ("coreset_raw", "coreset_learned")
    )
    assert picks == 2 * report.budgets[-1]
    assert tracer.counts["coreset.picks"] == picks
    assert tracer.counts["pipeline.probe.queries"] > 0
    assert tracer_module.leftovers() == []


def test_a_two_worker_experiment_is_traced_and_restored(tracer_module, tiny_ds):
    # the repeats run in forked workers, whose spans stay there; the
    # report must be the untraced serial run's
    ds, labels = tiny_ds
    learned = dict(
        loss=preset_loss_config({"ntxent", "patient", "volume"}),
        train=TrainConfig(epochs=1, hidden=(4,), rep_dim=3, proj_dim=2),
    )
    plan = RoundPlan(fractions=(0.25, 0.5), n_repeats=2, seed=3)
    serial = pipeline.run_experiment(ds, labels, KINDS, plan, **learned)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        pooled = pipeline.run_experiment(ds, labels, KINDS, plan, **learned, threads=2)
    finally:
        tracer.restore()
    assert pooled.to_json() == serial.to_json()
    assert "pipeline.run_experiment" in {span[1] for span in tracer.spans}
    assert tracer_module.leftovers() == []


def test_commands_are_traced_and_restored(tracer_module, tiny_ds, tmp_path, capsys):
    ds, labels = tiny_ds
    data.save_dataset(ds, labels, tmp_path / "d")
    gcle.write_gcle(tmp_path / "e.gcle", ds.pixel_matrix(), ds.ids)
    commands = [
        ["stats", "--data", str(tmp_path / "d")],
        ["select", "--embeddings", str(tmp_path / "e.gcle"), "--budget", "3",
         "--initial", "0"],
        ["ablate", "--data", str(tmp_path / "d"), "--epochs", "1", "--hidden", "4",
         "--rep-dim", "3", "--proj-dim", "2"],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.restore()
    assert codes == [0, 0, 0], capsys.readouterr().err
    names = {span[1] for span in tracer.spans}
    assert {
        "coreset.k_center_greedy", "coreset.silhouette_score",
        "kernels.all_pairs_mean_abs", "kernels.nn_indices",
    } <= names
    assert tracer_module.leftovers() == []
