"""Optimizer semantics, training-loop determinism, and checkpoint behavior."""

import csv
import os

import numpy as np
import pytest

from talnet import autograd as ag
from talnet import trainer as trainer_mod
from talnet.config import ModelConfig, TrainConfig
from talnet.data import all_clips, default_schema, generate_synthetic, train_test_split
from talnet.nn import load_checkpoint
from talnet.trainer import (ABLATION_VARIANTS, SGD, DivergenceError,
                            batch_arrays, build_model, compute_loss,
                            evaluate_split, train, write_ablation_table)

# a deliberately tiny setup so each training run takes a few seconds at most
TINY_MODEL = ModelConfig(frame_height=16, frame_width=8,
                         backbone_channels=(4, 8), clip_len=4,
                         d_v=8, d=8, attention_hidden=8, d_g=8, d_p=8)
TINY_TRAIN = TrainConfig(lr=0.01, stage1_epochs=1, stage2_epochs=1,
                         batch_identities=2, clips_per_identity=2, seed=0)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(4, 4, 4, default_schema(), noise=0.02,
                              occlusion_prob=0.0, seed=5,
                              frame_shape=(3, 16, 8))


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# --- SGD -----------------------------------------------------------------------


def _param(value, dtype=np.float64):
    return ag.tensor(value, requires_grad=True, dtype=dtype)


def test_sgd_two_steps_hand_computed():
    # w0 = 1, g = 2 each step, lr = 0.1, mu = 0.5, no decay:
    # step1: v = 2,   w = 1 - 0.1*(2 + 1)   = 0.7
    # step2: v = 3,   w = 0.7 - 0.1*(2 + 1.5) = 0.35
    p = _param([1.0])
    opt = SGD([p], lr=0.1, momentum=0.5)
    for expected in (0.7, 0.35):
        p.grad = np.asarray([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(expected)


def test_sgd_weight_decay_adds_to_gradient():
    p = _param([2.0])
    opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
    p.grad = np.asarray([0.0])
    opt.step()
    # g_eff = 0 + 0.5 * 2 = 1 -> w = 2 - 0.1 = 1.9
    assert p.data[0] == pytest.approx(1.9)


def test_sgd_zero_lr_keeps_params():
    p = _param([3.0])
    opt = SGD([p], lr=0.0, momentum=0.9, weight_decay=0.1)
    for _ in range(3):
        p.grad = np.asarray([5.0])
        opt.step()
    assert p.data[0] == 3.0


def test_sgd_skips_missing_grads():
    p = _param([1.0])
    opt = SGD([p], lr=0.1)
    opt.step()  # grad is None
    assert p.data[0] == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_clips_by_global_norm(dtype):
    p = _param([0.0, 0.0], dtype)
    opt = SGD([p], lr=1.0, momentum=0.0, max_grad_norm=1.0)
    p.grad = np.asarray([3.0, 4.0], dtype=dtype)  # norm 5 -> scaled by 1/5
    opt.step()
    np.testing.assert_allclose(p.data, [-0.6, -0.8])
    # the clip factor must not promote a float32 parameter or its velocity
    assert p.data.dtype == dtype and opt.velocity[0].dtype == dtype


def test_sgd_no_clip_under_cap():
    p = _param([0.0])
    opt = SGD([p], lr=1.0, momentum=0.0, max_grad_norm=10.0)
    p.grad = np.asarray([2.0])
    opt.step()
    assert p.data[0] == pytest.approx(-2.0)


@pytest.mark.parametrize("max_grad_norm", [0.0, 1.0])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_sgd_refuses_non_finite_gradient_before_writing(max_grad_norm, bad):
    p, q = _param([1.0, 2.0]), _param([3.0])
    opt = SGD([p, q], lr=0.1, momentum=0.9, max_grad_norm=max_grad_norm)
    p.grad, q.grad = np.asarray([0.5, 0.5]), np.asarray([bad])
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    np.testing.assert_array_equal(q.data, [3.0])
    assert all(not v.any() for v in opt.velocity)


# --- build / loop ----------------------------------------------------------------


def test_build_model_injects_dataset_dims(small_dataset):
    model = build_model(TINY_MODEL, small_dataset, seed=0)
    assert model.cfg.num_classes == 4
    assert model.cfg.category_counts == tuple(small_dataset.schema.category_counts)


def test_conv2d_worker_count_changes_no_loss_or_parameter_byte(tmp_path, small_dataset,
                                                               monkeypatch):
    monkeypatch.setattr(ag, "_GRAIN", 1)  # split even the tiny model's convs
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ag, "_WORKERS", workers)
        model, _, log = train(TINY_MODEL, TINY_TRAIN, small_dataset, tmp_path / f"w{workers}")
        with open(log, "rb") as fh:
            runs.append((fh.read(), [p.data.tobytes() for p in model.parameters()]))
    assert runs[1] == runs[0]


def test_same_seed_gives_identical_loss_csv(tmp_path, small_dataset):
    _, _, log1 = train(TINY_MODEL, TINY_TRAIN, small_dataset, tmp_path / "a")
    _, _, log2 = train(TINY_MODEL, TINY_TRAIN, small_dataset, tmp_path / "b")
    assert _read_csv(log1) == _read_csv(log2)
    rows = _read_csv(log1)
    assert rows[0] == ["stage", "epoch", "step", "L_tri", "L_ide", "L_att", "L"]
    assert len(rows) > 1


def test_different_seed_changes_losses(tmp_path, small_dataset):
    from dataclasses import replace
    _, _, log1 = train(TINY_MODEL, TINY_TRAIN, small_dataset, tmp_path / "a")
    _, _, log2 = train(TINY_MODEL, replace(TINY_TRAIN, seed=1), small_dataset,
                       tmp_path / "b")
    assert _read_csv(log1) != _read_csv(log2)


def test_stage1_touches_only_backbone_and_appearance(tmp_path, small_dataset):
    from dataclasses import replace
    tc = replace(TINY_TRAIN, stage2_epochs=0, stage1_epochs=2)
    model, _, log = train(TINY_MODEL, tc, small_dataset, tmp_path / "s1")
    fresh = build_model(TINY_MODEL, small_dataset, seed=tc.seed)
    trained = dict(model.named_parameters())
    moved = 0
    for name, p0 in fresh.named_parameters():
        same = np.array_equal(p0.data, trained[name].data)
        top = name.split(".")[0]
        if top in ("backbone", "appearance"):
            moved += 0 if same else 1
        else:
            assert same, f"stage 1 modified {name}"
    assert moved > 0
    stages = {row[0] for row in _read_csv(log)[1:]}
    assert stages == {"appearance-only"}


def test_checkpoint_round_trip_identical_metrics(tmp_path, small_dataset):
    train_set, test_set = train_test_split(small_dataset, test_seqs_per_id=2)
    model, ckpt, _ = train(TINY_MODEL, TINY_TRAIN, train_set, tmp_path / "run")
    res1 = evaluate_split(model, test_set.sequences, 0.3, TINY_MODEL.clip_len)

    fresh = build_model(TINY_MODEL, train_set, seed=123)
    header = load_checkpoint(ckpt, fresh)
    assert header["seed"] == TINY_TRAIN.seed
    res2 = evaluate_split(fresh, test_set.sequences, 0.3, TINY_MODEL.clip_len)
    np.testing.assert_array_equal(res1.cmc, res2.cmc)
    assert res1.mean_ap == res2.mean_ap


def test_divergence_saves_checkpoint_and_raises(tmp_path, small_dataset,
                                                monkeypatch):
    def bad_loss(model, frames, id_targets, attr_targets, tc, stage, rng,
                 **kwargs):
        return ag.tensor(np.asarray(np.inf)), {"L": float("inf")}

    monkeypatch.setattr(trainer_mod, "compute_loss", bad_loss)
    with pytest.raises(DivergenceError):
        train(TINY_MODEL, TINY_TRAIN, small_dataset, tmp_path / "div")
    assert os.path.exists(tmp_path / "div" / "checkpoint.zip")


def test_warmup_holds_triplet_then_enables_it(tmp_path, small_dataset):
    from dataclasses import replace
    # warmup_exit_frac=10 makes the CE condition trivially true, so the
    # triplet activates exactly after warmup_epochs
    tc = replace(TINY_TRAIN, stage1_epochs=3, stage2_epochs=0,
                 warmup_epochs=1, warmup_exit_frac=10.0)
    _, _, log = train(TINY_MODEL, tc, small_dataset, tmp_path / "warm")
    rows = _read_csv(log)[1:]
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(int(r[1]), []).append(float(r[3]))
    assert all(v == 0.0 for v in by_epoch[0])
    # triplet active right after warmup (later epochs may re-enter warmup if
    # the collapse guard trips on this tiny model)
    assert all(v > 0.0 for v in by_epoch[1])


def test_collapse_guard_rolls_back_to_ce_only(tmp_path, small_dataset,
                                              monkeypatch):
    # a loss stub that mimics full feature collapse: whenever the triplet is
    # active it reports exactly margin * I * V * heads
    def stub(model, frames, id_targets, attr_targets, tc, stage, rng,
             tri_weight=1.0):
        floor = tc.margin * tc.batch_identities * tc.clips_per_identity * 5
        tri = floor if tri_weight > 0 else 0.0
        loss = ag.tensor(np.asarray(1.0 + tri))
        return loss, {"L": 1.0 + tri, "L_tri": tri, "L_ide": 1.0,
                      "L_app": 1.0 + tri}

    monkeypatch.setattr(trainer_mod, "compute_loss", stub)
    from dataclasses import replace
    tc = replace(TINY_TRAIN, stage1_epochs=6, stage2_epochs=0,
                 warmup_epochs=1, warmup_exit_frac=10.0)
    _, _, log = train(TINY_MODEL, tc, small_dataset, tmp_path / "guard")
    tri_by_epoch = {}
    for r in _read_csv(log)[1:]:
        tri_by_epoch.setdefault(int(r[1]), set()).add(float(r[3]))
    # epoch 0 warms; epochs 1-2 sit pinned at the floor, which trips the
    # guard (two consecutive pinned epochs); epoch 3 must be CE-only again
    assert tri_by_epoch[0] == {0.0}
    assert all(v > 0 for v in tri_by_epoch[1])
    assert all(v > 0 for v in tri_by_epoch[2])
    assert tri_by_epoch[3] == {0.0}


# --- triplet schedule -------------------------------------------------------------


def _schedule(n_heads=5, **kw):
    from dataclasses import replace
    return trainer_mod.TripletSchedule(replace(TINY_TRAIN, **kw), n_heads)


def test_schedule_exits_warmup_on_ce_fraction():
    s = _schedule(warmup_epochs=3, warmup_exit_frac=0.5, triplet_ramp_epochs=1)
    assert s.weight() == 0.0
    assert s.on_epoch_end(10.0, 0.0) is None  # sets the reference CE
    assert s.on_epoch_end(4.0, 0.0) is None  # low enough, but within warmup_epochs
    assert s.weight() == 0.0
    assert s.on_epoch_end(5.1, 0.0) is None  # past warmup_epochs, above 0.5 x 10
    assert s.on_epoch_end(5.0, 0.0) == "warmup_exit"
    assert not s.warming and s.weight() == 1.0


def test_schedule_hard_cap_is_three_warmups():
    s = _schedule(warmup_epochs=2, warmup_exit_frac=0.1)
    events = [s.on_epoch_end(10.0, 0.0) for _ in range(6)]
    assert events == [None] * 5 + ["warmup_exit"]


def test_schedule_ramps_triplet_weight_after_warmup():
    s = _schedule(warmup_epochs=1, warmup_exit_frac=10.0, triplet_ramp_epochs=3)
    weights = []
    for _ in range(5):
        weights.append(s.weight())
        s.on_epoch_end(1.0, 0.0)
    assert weights == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0, 1.0])


def test_schedule_ramps_without_warmup():
    s = _schedule(warmup_epochs=0, triplet_ramp_epochs=3)
    weights = []
    floor = s.floor
    for _ in range(4):
        weights.append(s.weight())
        # pinned epochs cannot roll back: no warmup exit, nothing saved
        assert s.on_epoch_end(1.0, floor) is None
    assert weights == pytest.approx([1 / 3, 2 / 3, 1.0, 1.0])


def test_schedule_rolls_back_after_two_pinned_epochs():
    s = _schedule(warmup_epochs=1, warmup_exit_frac=10.0, triplet_ramp_epochs=1)
    floor = TINY_TRAIN.margin * TINY_TRAIN.batch_identities * TINY_TRAIN.clips_per_identity * 5
    assert s.floor == pytest.approx(floor)
    assert s.on_epoch_end(2.0, 0.0) == "warmup_exit"  # CE at the exit: 2.0
    assert s.on_epoch_end(2.0, floor) is None  # pinned once
    assert s.on_epoch_end(2.0, 0.5 * floor) is None  # declining: streak resets
    assert s.on_epoch_end(2.0, floor) is None
    assert s.on_epoch_end(1.9, 1.04 * floor) is None  # CE improved: not pinned
    assert s.on_epoch_end(2.1, 1.04 * floor) is None
    assert s.on_epoch_end(2.0, 0.96 * floor) == "collapse_rollback"
    assert s.warming and s.weight() == 0.0
    assert s.exit_frac == pytest.approx(10.0 * 0.85)
    # one warmup epoch again, and this one is under the bar
    assert s.on_epoch_end(2.0, 0.0) == "warmup_exit"
    assert s.exit_frac == pytest.approx(10.0 * 0.85)

    # the re-warm counts its minimum and its 3x cap from the rollback
    s = _schedule(warmup_epochs=2, warmup_exit_frac=0.1, triplet_ramp_epochs=1)
    assert [s.on_epoch_end(10.0, 0.0) for _ in range(6)] == [None] * 5 + ["warmup_exit"]
    assert [s.on_epoch_end(10.0, s.floor) for _ in range(2)] == [None, "collapse_rollback"]
    assert s.on_epoch_end(0.8, 0.0) is None  # under the bar, but only 1 of 2 epochs
    assert s.on_epoch_end(0.9, 0.0) is None  # above the stricter bar of 0.085 x 10
    assert s.on_epoch_end(0.8, 0.0) == "warmup_exit"
    assert [s.on_epoch_end(10.0, s.floor) for _ in range(2)] == [None, "collapse_rollback"]
    assert [s.on_epoch_end(10.0, 0.0) for _ in range(6)] == [None] * 5 + ["warmup_exit"]


def test_schedule_without_appearance_branch_never_rolls_back():
    """No triplet heads: no warmup to exit, so no snapshot and no rollback."""
    s = _schedule(n_heads=0, warmup_epochs=1, warmup_exit_frac=10.0)
    assert not s.warming
    assert [s.on_epoch_end(0.0, 0.0) for _ in range(4)] == [None] * 4


def test_single_stage_when_branch_ablated(tmp_path, small_dataset):
    from dataclasses import replace
    cfg = replace(TINY_MODEL, use_att=False)
    _, _, log = train(cfg, TINY_TRAIN, small_dataset, tmp_path / "apponly")
    stages = {row[0] for row in _read_csv(log)[1:]}
    assert stages == {"joint"}


def test_ablation_variants_are_valid_configs():
    from dataclasses import replace
    for name, overrides in ABLATION_VARIANTS.items():
        cfg = replace(TINY_MODEL, **overrides)  # must not raise
        assert cfg is not None


def test_ablate_trains_each_distinct_config_once(tmp_path, small_dataset, monkeypatch):
    """`pool_mean` resolves to the same config as `TALNet_wo_Att`: one
    training per seed, reported under both names. The split follows
    `test_seqs_per_id`."""
    from talnet.retrieval import RankingResult
    trained, evaluated = [], []

    def fake_train(cfg, tcfg, train_set, run_dir, quiet=True):
        trained.append((cfg.pooling, cfg.use_att, tcfg.seed, len(train_set.sequences)))
        return len(trained), None, None

    def fake_evaluate(model, sequences, lambda_sim, clip_len):
        evaluated.append([s.sequence_id for s in sequences])
        return RankingResult(cmc=np.array([model / 10.0]), mean_ap=model / 100.0)

    monkeypatch.setattr(trainer_mod, "train", fake_train)
    monkeypatch.setattr(trainer_mod, "evaluate_split", fake_evaluate)
    rows = trainer_mod.ablate(TINY_MODEL, TINY_TRAIN, small_dataset, str(tmp_path),
                              variants=["TALNet_wo_Att", "pool_max", "pool_mean"],
                              seeds=(0, 1))
    assert trained == [("mean", False, 0, 8), ("mean", False, 1, 8),
                       ("max", False, 0, 8), ("max", False, 1, 8)]
    assert [r[0] for r in rows] == ["TALNet_wo_Att", "pool_max", "pool_mean"]
    assert rows[2][1:] == rows[0][1:] == pytest.approx((0.15, 0.015))
    assert rows[1][1:] == pytest.approx((0.35, 0.035))
    _, test_set = train_test_split(small_dataset, 2)
    assert evaluated == [[s.sequence_id for s in test_set.sequences]] * 4

    trained.clear()
    evaluated.clear()
    trainer_mod.ablate(TINY_MODEL, TINY_TRAIN, small_dataset, str(tmp_path),
                       variants=["TALNet_wo_Att"], test_seqs_per_id=1)
    _, test_set = train_test_split(small_dataset, 1)
    assert trained == [("mean", False, 0, 12)]
    assert evaluated == [[s.sequence_id for s in test_set.sequences]]
    assert len(evaluated[0]) == len(small_dataset.identities)


def test_write_ablation_table(tmp_path):
    path = tmp_path / "table.csv"
    write_ablation_table(path, [("A", 0.91234, 0.75), ("B", 0.5, 0.25)])
    rows = _read_csv(path)
    assert rows[0] == ["variant", "rank1", "mAP"]
    assert rows[1] == ["A", "0.9123", "0.7500"]


def _tiny_batch_loss(model, dataset, stage):
    """Forward and backward of one 2x2 PK batch; returns every graph node."""
    clips = all_clips(dataset, TINY_MODEL.clip_len)
    batch = [c for ident in dataset.identities[:2]
             for c in [c for c in clips if c.identity == ident][:2]]
    frames, ids, attrs = batch_arrays(batch)
    id_map = {ident: k for k, ident in enumerate(dataset.identities)}
    loss, _ = compute_loss(model, frames, np.array([id_map[i] for i in ids]), attrs,
                           TINY_TRAIN, stage, np.random.default_rng(0))
    loss.backward()
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("stage", ["appearance-only", "joint"])
def test_backward_leaves_no_two_grads_sharing_memory(small_dataset, stage):
    model = build_model(TINY_MODEL, small_dataset, seed=0)
    grads = [n.grad for n in _tiny_batch_loss(model, small_dataset, stage)
             if n.grad is not None]
    assert len(grads) > 100
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("stage", ["appearance-only", "joint"])
def test_graph_stays_float32_after_a_clipped_step(small_dataset, stage):
    model = build_model(TINY_MODEL, small_dataset, seed=0)
    params = trainer_mod._stage_params(model, stage)
    opt = SGD(params, lr=0.01, max_grad_norm=1e-3)
    _tiny_batch_loss(model, small_dataset, stage)
    opt.step()  # the gradient norm is far above 1e-3, so this step clips
    opt.zero_grad()
    nodes = _tiny_batch_loss(model, small_dataset, stage)
    assert len(nodes) > 100
    for node in nodes:
        assert node.data.dtype == np.float32, node._op
        assert node.grad is None or node.grad.dtype == np.float32, node._op
    assert all(v.dtype == np.float32 for v in opt.velocity)
