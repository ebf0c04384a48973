"""End-to-end CLI flow on a deliberately tiny configuration."""

import argparse
import os
import shutil
import zipfile

import numpy as np
import pytest

from talnet.attention import SpatialAttentionBlock
from talnet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from talnet.data import load_dataset, train_test_split
from talnet.retrieval import evaluate, metrics_report, query_gallery_split, raw_pixel_record

TINY = [
    "--set", "data.num_identities=4",
    "--set", "data.seqs_per_identity=4",
    "--set", "data.frames_per_seq=4",
    "--set", "data.occlusion_prob=0",
    "--set", "model.backbone_channels=4,8",
    "--set", "model.clip_len=4",
    "--set", "model.d_v=8", "--set", "model.d=8",
    "--set", "model.attention_hidden=8",
    "--set", "model.d_g=8", "--set", "model.d_p=8",
    "--set", "train.stage1_epochs=1", "--set", "train.stage2_epochs=1",
    "--set", "train.batch_identities=2", "--set", "train.clips_per_identity=2",
]


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK


# the flags each command reads; 28 in all
COMMAND_FLAGS = {
    "synth": {"--config", "--set", "--out"},
    "train": {"--config", "--set", "--out", "--data-dir", "--quiet"},
    "eval": {"--config", "--set", "--out", "--data-dir", "--checkpoint"},
    "ablate": {"--config", "--set", "--out", "--data-dir", "--quiet", "--variants", "--seeds"},
    "gradcheck": {"--tol", "--eps"},
    "dump-attention": {"--config", "--set", "--out", "--data-dir", "--checkpoint", "--sequence"},
}


def test_each_command_declares_the_flags_it_reads():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    declared = {name: {flag for action in p._actions for flag in action.option_strings
                       if flag not in ("-h", "--help")}
                for name, p in commands.items()}
    assert declared == COMMAND_FLAGS
    assert sum(map(len, declared.values())) == 28


@pytest.mark.parametrize("command, flag", [
    ("synth", "--data-dir"), ("synth", "--quiet"),
    ("eval", "--quiet"), ("eval", "--protocol"), ("dump-attention", "--quiet"),
    ("gradcheck", "--config"), ("gradcheck", "--set"), ("gradcheck", "--out"),
    ("gradcheck", "--data-dir"), ("gradcheck", "--quiet"),
])
def test_a_flag_the_command_does_not_read_is_usage_error(command, flag, capsys):
    required = ["--checkpoint", "c"] if command in ("eval", "dump-attention") else []
    assert main([command, flag, "x"] + required) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["model.num_classes=3", "model.category_counts=3,4"])
def test_dataset_derived_model_keys_are_data_errors(tmp_path, capsys, item):
    run_dir = tmp_path / "run"
    assert main(["train", "--out", str(run_dir), "--set", item] + TINY) == EXIT_DATA
    key = item.split("=")[0]
    err = capsys.readouterr().err
    assert err == f"error: {key} is set from the dataset and cannot be overridden\n"
    assert not run_dir.exists()


def test_bad_override_is_data_error(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"),
               "--set", "data.nonexistent=1"])
    assert rc == EXIT_DATA
    rc = main(["synth", "--out", str(tmp_path / "d"), "--set", "garbage"])
    assert rc == EXIT_DATA


def test_missing_config_file_is_data_error(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"),
               "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_DATA


def test_missing_checkpoint_is_data_error(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "nope.zip"),
               "--out", str(tmp_path / "o")] + TINY)
    assert rc == EXIT_DATA


def test_full_flow_synth_train_eval_dump(tmp_path, monkeypatch, capsys):
    data_dir = str(tmp_path / "data")
    run_dir = str(tmp_path / "run")
    eval_dir = str(tmp_path / "eval")
    dump_dir = str(tmp_path / "dump")

    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    assert os.path.exists(os.path.join(data_dir, "manifest.tsv"))

    assert main(["train", "--data-dir", data_dir, "--out", run_dir,
                 "--quiet"] + TINY) == EXIT_OK
    ckpt = os.path.join(run_dir, "checkpoint.zip")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(run_dir, "loss_log.csv"))

    assert main(["eval", "--data-dir", data_dir, "--checkpoint", ckpt,
                 "--out", eval_dir] + TINY) == EXIT_OK
    assert os.path.exists(os.path.join(eval_dir, "metrics.tsv"))
    assert os.path.exists(os.path.join(eval_dir, "embeddings.tsv"))
    with open(os.path.join(eval_dir, "metrics.tsv")) as fh:
        metrics = fh.read()
    assert "rank-1" in metrics and "mAP" in metrics
    # the raw-pixel baseline on the same test split, in the same format
    _, test_set = train_test_split(load_dataset(data_dir), 2)
    q, g = query_gallery_split([raw_pixel_record(s) for s in test_set.sequences])
    with open(os.path.join(eval_dir, "baseline.tsv")) as fh:
        baseline = fh.read()
    assert baseline == metrics_report(evaluate(q, g))
    assert baseline.splitlines()[0] == metrics.splitlines()[0] == "metric\tvalue"

    raw_calls = []
    real_raw_affines = SpatialAttentionBlock.raw_affines

    def counted_raw_affines(block, t_p):
        raws = real_raw_affines(block, t_p)
        raw_calls.append([r.requires_grad for r in raws])
        return raws

    monkeypatch.setattr(SpatialAttentionBlock, "raw_affines", counted_raw_affines)
    assert main(["dump-attention", "--data-dir", data_dir,
                 "--checkpoint", ckpt, "--sequence", "0",
                 "--out", dump_dir] + TINY) == EXIT_OK
    # one forward, recording no graph; its regions are the dumped ones
    assert len(raw_calls) == 1 and not any(raw_calls[0])
    with open(os.path.join(dump_dir, "regions.tsv")) as fh:
        regions = fh.read().splitlines()
    assert regions[0] == "attribute\tframe\ttop\tleft\tbottom\tright"
    rows = [r.split("\t") for r in regions[1:]]
    names = load_dataset(data_dir).schema.names
    clip_len = 4
    assert [r[0] for r in rows] == [n for n in names for _ in range(clip_len)]
    assert [int(r[1]) for r in rows] == list(range(clip_len)) * len(names)
    for _, _, top, left, bottom, right in rows:
        assert 0.0 <= float(top) <= float(bottom) <= 1.0
        assert 0.0 <= float(left) <= float(right) <= 1.0
    scores = np.loadtxt(os.path.join(dump_dir, "semantic_scores.tsv"))
    np.testing.assert_allclose(scores.sum(axis=0), 1.0, atol=1e-5)


def test_out_dir_env_override(tmp_path, monkeypatch, capsys):
    env_dir = str(tmp_path / "env_out")
    monkeypatch.setenv("TALNET_OUT_DIR", env_dir)
    assert main(["synth", "--out", str(tmp_path / "ignored")] + TINY) == EXIT_OK
    assert os.path.exists(os.path.join(env_dir, "manifest.tsv"))
    assert not os.path.exists(os.path.join(tmp_path, "ignored"))


def test_dump_attention_unknown_sequence(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    run_dir = str(tmp_path / "run")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    assert main(["train", "--data-dir", data_dir, "--out", run_dir,
                 "--quiet"] + TINY) == EXIT_OK
    rc = main(["dump-attention", "--data-dir", data_dir,
               "--checkpoint", os.path.join(run_dir, "checkpoint.zip"),
               "--sequence", "9999", "--out", str(tmp_path / "d")] + TINY)
    assert rc == EXIT_DATA


def test_dump_attention_without_spatial_attention_is_usage_error(tmp_path, capsys):
    no_st = TINY + ["--set", "model.use_spatial_attention=false"]
    run_dir, dump_dir = str(tmp_path / "run"), tmp_path / "dump"
    assert main(["train", "--out", run_dir, "--quiet"] + no_st) == EXIT_OK
    capsys.readouterr()
    rc = main(["dump-attention", "--checkpoint", os.path.join(run_dir, "checkpoint.zip"),
               "--sequence", "0", "--out", str(dump_dir)] + no_st)
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: spatial attention is disabled in this config\n"
    assert not os.path.exists(dump_dir / "regions.tsv")


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.num_identities = 3\n# comment\ndata.seqs_per_identity = 2\n")
    out = str(tmp_path / "data")
    assert main(["synth", "--config", str(cfg), "--out", out,
                 "--set", "data.frames_per_seq=4"]) == EXIT_OK
    with open(os.path.join(out, "manifest.tsv")) as fh:
        manifest = fh.read().splitlines()
    # header + 3 ids x 2 seqs
    assert len(manifest) == 1 + 6


def test_truncated_checkpoint_is_data_error(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--out", run_dir, "--quiet"] + TINY) == EXIT_OK
    ckpt = os.path.join(run_dir, "checkpoint.zip")
    assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "ok")] + TINY) == EXIT_OK
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    half = str(tmp_path / "half.zip")
    with open(half, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", half, "--out", str(tmp_path / "o")] + TINY)
    assert rc == EXIT_DATA
    assert "unreadable checkpoint" in capsys.readouterr().err
    # a whole zip whose header.json is cut in half
    cut = str(tmp_path / "cut_header.zip")
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(cut, "w") as dst:
        for name in src.namelist():
            raw = src.read(name)
            dst.writestr(name, raw[:len(raw) // 2] if name == "header.json" else raw)
    rc = main(["eval", "--checkpoint", cut, "--out", str(tmp_path / "c")] + TINY)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: unreadable checkpoint {cut}")


@pytest.mark.parametrize("poison, message", [
    pytest.param("loss", "non-finite loss", id="loss"),
    # a NaN pixel reaches the TS-GRU lattice, whose first cell raises
    pytest.param("frame", "non-finite value in op 'first_pass step (a=0, t=0)'", id="frame"),
])
def test_nan_loss_exits_numeric_and_leaves_loadable_checkpoint(tmp_path, monkeypatch,
                                                               capsys, poison, message):
    from talnet import autograd as ag
    from talnet import trainer
    from talnet.config import RunConfig, apply_overrides
    from talnet.data import load_dataset
    from talnet.nn import load_checkpoint

    real, calls = trainer.compute_loss, []

    def nan_at_third_step(model, frames, *args, **kwargs):
        calls.append(len(calls))
        third = len(calls) == 3
        if third and poison == "frame":
            frames = frames.copy()
            frames[0, 0, 0, 0, 0] = np.nan
        loss, parts = real(model, frames, *args, **kwargs)
        if third and poison == "loss":
            return ag.tensor(np.asarray(np.nan)), dict(parts, L=float("nan"))
        return loss, parts

    data_dir, run_dir = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    monkeypatch.setattr(trainer, "compute_loss", nan_at_third_step)
    capsys.readouterr()
    rc = main(["train", "--data-dir", data_dir, "--out", run_dir, "--quiet"] + TINY)
    assert rc == EXIT_NUMERIC
    assert len(calls) == 3 and message in capsys.readouterr().err
    cfg = apply_overrides(RunConfig(), [item.split("=", 1) for item in TINY[1::2]])
    dataset = load_dataset(data_dir)
    model = trainer.build_model(cfg.model, dataset, cfg.train.seed)
    header = load_checkpoint(os.path.join(run_dir, "checkpoint.zip"), model)
    assert header["seed"] == cfg.train.seed
    assert all(np.all(np.isfinite(p.data)) for p in model.parameters())
    fresh = trainer.build_model(cfg.model, dataset, cfg.train.seed)
    assert any(not np.array_equal(a.data, b.data)  # two steps were taken
               for a, b in zip(model.parameters(), fresh.parameters()))


def test_inf_gradient_exits_numeric_and_keeps_finite_checkpoint(tmp_path, monkeypatch, capsys):
    from talnet import trainer
    from talnet.config import RunConfig, apply_overrides
    from talnet.nn import load_checkpoint

    real, calls = trainer.SGD.step, []

    def inf_at_second_step(opt):
        calls.append(len(calls))
        if len(calls) == 2:
            next(p for p in opt.params if p.grad is not None).grad.flat[0] = np.inf
        real(opt)

    data_dir, run_dir = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    monkeypatch.setattr(trainer.SGD, "step", inf_at_second_step)
    capsys.readouterr()
    rc = main(["train", "--data-dir", data_dir, "--out", run_dir, "--quiet"] + TINY)
    assert rc == EXIT_NUMERIC
    assert len(calls) == 2 and "non-finite gradient" in capsys.readouterr().err
    cfg = apply_overrides(RunConfig(), [item.split("=", 1) for item in TINY[1::2]])
    dataset = load_dataset(data_dir)
    model = trainer.build_model(cfg.model, dataset, cfg.train.seed)
    load_checkpoint(os.path.join(run_dir, "checkpoint.zip"), model)
    assert all(np.all(np.isfinite(p.data)) for p in model.parameters())
    fresh = trainer.build_model(cfg.model, dataset, cfg.train.seed)
    assert any(not np.array_equal(a.data, b.data)  # the first step was taken
               for a, b in zip(model.parameters(), fresh.parameters()))


def test_manifest_cut_mid_row_names_file_and_line(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    manifest = os.path.join(data_dir, "manifest.tsv")
    with open(manifest) as fh:
        text = fh.read()
    cut = text.index("\t", text.index("\n", text.index("\n") + 1) + 1)
    with open(manifest, "w") as fh:
        fh.write(text[:cut + 2])  # header, row 1, then two fields of row 2
    capsys.readouterr()
    rc = main(["train", "--data-dir", data_dir, "--out", str(tmp_path / "run")] + TINY)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: {manifest}:3: expected 5 fields\n"


def _bad_label(ann, manifest):
    lines = ann.read_text().splitlines(keepends=True)
    fields = lines[1].split("\t")
    lines[1] = "\t".join([fields[0], "x" + fields[1]] + fields[2:])
    ann.write_text("".join(lines))
    name = lines[0].split("\t")[1].split(":")[0]
    return f"{ann}:2: label of {name} 'x{fields[1]}' is not an integer"


def _identity_without_annotation(ann, manifest):
    lines = ann.read_text().splitlines(keepends=True)
    ann.write_text("".join(lines[:-1]))
    ident = lines[-1].split("\t")[0]
    rows = manifest.read_text().splitlines()
    lineno = 1 + next(i for i, row in enumerate(rows[1:], 1) if row.split("\t")[1] == ident)
    return f"{manifest}:{lineno}: identity {ident} is not in {ann}"


def _float_frame_count(ann, manifest):
    rows = manifest.read_text().splitlines(keepends=True)
    fields = rows[1].split("\t")
    fields[3] += ".0"
    rows[1] = "\t".join(fields)
    manifest.write_text("".join(rows))
    return f"{manifest}:2: frame_count '{fields[3]}' is not an integer"


def _wrong_frame_count(ann, manifest):
    rows = manifest.read_text().splitlines(keepends=True)
    fields = rows[1].split("\t")
    count = int(fields[3])
    fields[3] = str(count + 1)
    rows[1] = "\t".join(fields)
    manifest.write_text("".join(rows))
    path = manifest.parent / fields[4].strip()
    return f"{manifest}:2: frame_count {count + 1}, but {path} holds {count} frames"


@pytest.mark.parametrize("corrupt", [_bad_label, _identity_without_annotation,
                                     _float_frame_count, _wrong_frame_count],
                         ids=["label", "identity", "frame_count", "frame_count_mismatch"])
def test_malformed_data_field_names_file_and_line(tmp_path, capsys, corrupt):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir)] + TINY) == EXIT_OK
    message = corrupt(data_dir / "annotations.tsv", data_dir / "manifest.tsv")
    capsys.readouterr()
    rc = main(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "run")] + TINY)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_frame_names_file(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    with open(os.path.join(data_dir, "manifest.tsv")) as fh:
        rel = fh.read().splitlines()[1].split("\t")[-1]
    path = os.path.join(data_dir, rel)
    frames = np.load(path)
    frames[0, 0, 0, 0] = np.nan
    np.save(path, frames)
    capsys.readouterr()
    rc = main(["train", "--data-dir", data_dir, "--out", str(tmp_path / "run")] + TINY)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: non-finite frame values\n"
    assert not os.path.exists(os.path.join(tmp_path, "run", "checkpoint.zip"))


def test_float64_frames_train_as_the_float32_ones(tmp_path, capsys):
    data_dir, wide_dir = tmp_path / "data", tmp_path / "wide"
    assert main(["synth", "--out", str(data_dir)] + TINY) == EXIT_OK
    shutil.copytree(data_dir, wide_dir)
    for path in wide_dir.glob("*.npy"):
        np.save(path, np.load(path).astype(np.float64))
    for src in (data_dir, wide_dir):
        assert main(["train", "--data-dir", str(src), "--out", str(tmp_path / f"run_{src.name}"),
                     "--quiet"] + TINY) == EXIT_OK
    logs = [(tmp_path / f"run_{name}" / "loss_log.csv").read_bytes() for name in ("data", "wide")]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("recast, found", [
    pytest.param(lambda f: (f * 255).astype(np.uint8), "4-D uint8", id="uint8"),
    pytest.param(lambda f: f[0], "3-D float32", id="3-D"),
])
def test_frame_stack_that_is_not_4d_floating_names_file(tmp_path, capsys, recast, found):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--out", data_dir] + TINY) == EXIT_OK
    with open(os.path.join(data_dir, "manifest.tsv")) as fh:
        rel = fh.read().splitlines()[1].split("\t")[-1]
    path = os.path.join(data_dir, rel)
    np.save(path, recast(np.load(path)))
    capsys.readouterr()
    rc = main(["train", "--data-dir", data_dir, "--out", str(tmp_path / "run")] + TINY)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {path}: expected a 4-D floating frame stack, "
                                       f"got {found}\n")


def test_checkpoint_of_another_model_config_is_data_error(tmp_path, capsys):
    """`model.pooling` changes no parameter shape, so only the stored config
    hash tells the checkpoint apart; eval and dump-attention refuse it."""
    run_dir = str(tmp_path / "run")
    assert main(["train", "--out", run_dir, "--quiet"] + TINY) == EXIT_OK
    ckpt = os.path.join(run_dir, "checkpoint.zip")
    for command in (["eval"], ["dump-attention", "--sequence", "0"]):
        capsys.readouterr()
        rc = main(command + ["--checkpoint", ckpt, "--out", str(tmp_path / "o")]
                  + TINY + ["--set", "model.pooling=max"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt} has model config hash ")
        saved, expected = err.split("hash ")[1].split(",")[0], err.split()[-1]
        assert len(saved) == len(expected) == 16 and saved != expected
    assert not os.path.exists(tmp_path / "o" / "metrics.tsv")
