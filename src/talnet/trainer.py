"""Two-stage SGD training loop, checkpointing, and ablation runner."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import astuple, replace

import numpy as np

from . import autograd as ag
from . import losses
from .config import config_dict
from .data import all_clips, pk_sample, random_erase, train_test_split
from .model import TALNet
from .nn import config_hash, save_checkpoint
from .retrieval import embed_sequences, evaluate, query_gallery_split


class DivergenceError(RuntimeError):
    pass


class SGD:
    """SGD with Nesterov momentum and L2 weight decay (decay added to the
    gradient). Update: v = mu*v + g; w -= lr * (g + mu*v)."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0,
                 max_grad_norm=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update. Raises FloatingPointError, before any parameter is
        written, when the gradients' global squared sum is not finite; the
        same sum gives the global-norm clipping factor."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        if not np.isfinite(total):
            raise FloatingPointError("non-finite gradient")
        # a Python float: an np.float64 factor would promote float32 updates
        scale = 1.0
        if self.max_grad_norm:
            norm = math.sqrt(total)
            if norm > self.max_grad_norm:
                scale = self.max_grad_norm / norm
        for p, v in zip(self.params, self.velocity):
            g = p.grad
            if g is None:
                continue
            g = g * scale
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * (g + self.momentum * v)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def build_model(model_cfg, dataset, seed):
    cfg = replace(model_cfg,
                  num_classes=len(dataset.identities),
                  category_counts=tuple(dataset.schema.category_counts))
    model = TALNet(cfg).initialize(seed)
    return model


def batch_arrays(batch):
    frames = np.stack([c.frames for c in batch])
    ids = np.array([c.identity for c in batch])
    attrs = np.stack([c.attribute_labels for c in batch])
    return frames, ids, attrs


def compute_loss(model, frames, id_targets, attr_targets, tc, stage, rng,
                 tri_weight=1.0):
    """Forward + loss for one PK batch; id_targets are class indices.

    tri_weight scales the triplet terms (see `TripletSchedule`); the logged
    L_tri is always the unweighted value.
    """
    cfg = model.cfg
    out = model.forward_clips(frames, rng=rng, att=stage != "appearance-only")
    l_app = l_att = None
    parts = {}
    if cfg.use_app:
        l_app, parts["L_tri"], parts["L_ide"] = losses.appearance_loss(
            out["app_global"], out["app_parts"], out["app_logits"], id_targets,
            tc.batch_identities, tc.clips_per_identity, tc.margin, tc.epsilon,
            tri_weight)
    if cfg.use_att and stage != "appearance-only":
        l_att = losses.attribute_loss(out["attr_logits"], attr_targets, tc.epsilon)
        parts["L_att"] = l_att.item()
    loss = losses.total_loss(l_app, l_att, tc.lambda_total)
    parts["L"] = loss.item()
    return loss, parts


class TripletSchedule:
    """When the batch-hard triplet runs, and at what weight.

    Training starts CE-only: running the hard-mining loss at full strength on
    unseparated features contracts them toward a single point before the
    classifiers can pull identities apart. Warmup lasts at least
    `warmup_epochs` and ends once the epoch-mean CE has dropped to
    `warmup_exit_frac` of its first warmup epoch's value, or after
    3 x `warmup_epochs` regardless. The triplet weight then ramps linearly
    to 1 over `triplet_ramp_epochs`.

    Hard mining can still collapse every feature to one point, which pins the
    epoch-mean triplet loss at margin * I * V * heads. A healthy decline
    passes through that value, so only two consecutive pinned epochs with CE
    no better than at the warmup exit count as collapse: the trainer then
    restores the parameters it saved at the exit, and warmup restarts with a
    0.85x stricter exit bar; its minimum and cap count from the restart.
    A model without triplet heads never warms up.
    """

    def __init__(self, tc, n_heads):
        self.warmup_epochs = tc.warmup_epochs
        self.ramp_epochs = max(tc.triplet_ramp_epochs, 1)
        self.exit_frac = tc.warmup_exit_frac
        self.floor = tc.margin * tc.batch_identities * tc.clips_per_identity * n_heads
        # without triplet heads there is nothing to warm up for
        self.warming = tc.warmup_epochs > 0 and n_heads > 0
        self.warm_done = 0  # warmup epochs since the start or the last rollback
        self.tri_epochs = 0  # triplet epochs since the last warmup exit
        self.pinned_streak = 0
        self.ce_start = self.ce_exit = None

    def weight(self):
        if self.warming:
            return 0.0
        return min(1.0, (self.tri_epochs + 1) / self.ramp_epochs)

    def on_epoch_end(self, mean_ce, mean_tri):
        """Advance one epoch; returns "warmup_exit", "collapse_rollback" or None."""
        if self.warming:
            self.warm_done += 1
            if self.ce_start is None:
                self.ce_start = mean_ce
            separated = (self.warm_done >= self.warmup_epochs
                         and mean_ce <= self.exit_frac * self.ce_start)
            if not (separated or self.warm_done >= 3 * self.warmup_epochs):
                return None
            self.warming = False
            self.tri_epochs = self.pinned_streak = 0
            self.ce_exit = mean_ce
            return "warmup_exit"
        self.tri_epochs += 1
        if self.ce_exit is None or self.floor <= 0:
            return None  # nothing to roll back to, or no triplet to collapse
        pinned = (abs(mean_tri - self.floor) <= 0.05 * self.floor
                  and mean_ce >= self.ce_exit)
        self.pinned_streak = self.pinned_streak + 1 if pinned else 0
        if self.pinned_streak < 2:
            return None
        self.warming = True
        self.warm_done = self.pinned_streak = 0
        self.exit_frac *= 0.85
        return "collapse_rollback"


def model_config_hash(model):
    """The hash a checkpoint stores and `talnet eval` compares on load."""
    return config_hash(config_dict(model.cfg))


def _stage_params(model, stage):
    if stage == "appearance-only":
        keep = ("backbone", "appearance")
        return [p for n, p in model.named_parameters() if n.split(".")[0] in keep]
    return model.parameters()


def train(model_cfg, train_cfg, dataset, out_dir, quiet=True):
    """Two-stage training: stage 1 fits backbone + appearance branch (skipped
    when the appearance branch is ablated), stage 2 optimizes everything
    jointly. Emits a per-step loss CSV and a final checkpoint; aborts on a
    non-finite loss, forward value or gradient, keeping the last good
    checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    tc = train_cfg
    model = build_model(model_cfg, dataset, tc.seed)
    clips = all_clips(dataset, model.cfg.clip_len)
    id_map = {ident: k for k, ident in enumerate(dataset.identities)}
    steps_per_epoch = max(1, len(clips) // (tc.batch_identities * tc.clips_per_identity))
    rng = np.random.default_rng([tc.seed, 1])
    erase_rng = np.random.default_rng([tc.seed, 2])
    pool_rng = np.random.default_rng([tc.seed, 3])
    ckpt_path = os.path.join(out_dir, "checkpoint.zip")
    cfg_hash = model_config_hash(model)

    if model.cfg.use_app and model.cfg.use_att:
        stages = [("appearance-only", tc.stage1_epochs), ("joint", tc.stage2_epochs)]
    else:
        stages = [("joint", tc.stage1_epochs + tc.stage2_epochs)]

    n_heads = (1 + model.cfg.n_stripes) if model.cfg.use_app else 0
    schedule = TripletSchedule(tc, n_heads)
    snapshot = None
    span = max(sum(e for _, e in stages) - 1, 1)
    epochs_done = 0
    log_path = os.path.join(out_dir, "loss_log.csv")
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "epoch", "step", "L_tri", "L_ide", "L_att", "L"])
        global_step = 0
        for stage, epochs in stages:
            opt = SGD(_stage_params(model, stage), lr=tc.lr,
                      momentum=tc.momentum, weight_decay=tc.weight_decay,
                      max_grad_norm=tc.max_grad_norm)
            recent = []
            for epoch in range(epochs):
                # one smooth exponential decay across the whole run; the
                # shrinking step size damps batch-to-batch oscillation, and a
                # longer warmup automatically hands the hard-mining loss a
                # smaller, more stable step size when it kicks in
                opt.lr = tc.lr * tc.decay_factor ** (min(epochs_done, span) / span)
                tri_weight = schedule.weight()
                epoch_rows = []
                for _ in range(steps_per_epoch):
                    batch = pk_sample(clips, tc.batch_identities, tc.clips_per_identity, rng)
                    batch = [random_erase(c, tc.erase_prob, erase_rng) for c in batch]
                    frames, ids, attrs = batch_arrays(batch)
                    id_targets = np.array([id_map[i] for i in ids])
                    opt.zero_grad()
                    try:
                        loss, parts = compute_loss(model, frames, id_targets, attrs,
                                                   tc, stage, pool_rng,
                                                   tri_weight=tri_weight)
                    except ag.NonFiniteError as exc:
                        bad = f"value in op '{exc.op}'"
                    else:
                        bad = None if np.isfinite(parts["L"]) else "loss"
                    if not bad:
                        loss.backward()
                        try:
                            opt.step()
                        except FloatingPointError:
                            bad = "gradient"
                    if bad:
                        save_checkpoint(ckpt_path, model, tc.seed, cfg_hash)
                        raise DivergenceError(
                            f"non-finite {bad} at stage {stage} epoch {epoch}; "
                            f"last checkpoint kept at {ckpt_path}")
                    row = [parts.get(k, 0.0) for k in ("L_tri", "L_ide", "L_att", "L")]
                    writer.writerow([stage, epoch, global_step] + [f"{v:.6f}" for v in row])
                    epoch_rows.append(row)
                    global_step += 1
                mean_tri, mean_ide, _, mean_loss = (
                    float(np.mean(col)) for col in zip(*epoch_rows))
                epochs_done += 1
                event = schedule.on_epoch_end(mean_ide, mean_tri)
                if event == "warmup_exit":
                    snapshot = {n: p.data.copy() for n, p in model.named_parameters()}
                elif event == "collapse_rollback":
                    for name, p in model.named_parameters():
                        p.data, p.grad = snapshot[name].copy(), None
                    recent = []
                if event:
                    # the loss surface changes when the triplet starts or stops
                    opt.velocity = [np.zeros_like(v) for v in opt.velocity]
                if not quiet:
                    print(f"[{stage}] epoch {epoch}: loss {mean_loss:.4f}")
                # stage-1 plateau stop (not during warmup)
                if stage == "appearance-only" and not schedule.warming:
                    recent.append(mean_loss)
                    if len(recent) > tc.plateau_window:
                        prev = recent[-tc.plateau_window - 1]
                        if prev > 0 and (prev - recent[-1]) / abs(prev) < tc.plateau_tol:
                            break
    save_checkpoint(ckpt_path, model, tc.seed, cfg_hash)
    return model, ckpt_path, log_path


def evaluate_split(model, test_sequences, lambda_sim, T):
    """Embed held-out sequences and run the cross-camera protocol on the
    descriptors the model's config produces."""
    records = embed_sequences(test_sequences, model, T)
    queries, gallery = query_gallery_split(records)
    return evaluate(queries, gallery, lambda_sim=lambda_sim)


ABLATION_VARIANTS = {
    "TALNet": {},
    "TALNet_wo_App": {"use_app": False},
    "TALNet_wo_Att": {"use_att": False},
    "AppNet_wo_GRU": {"use_att": False, "use_gru": False},
    "AttNet_wo_ST": {"use_app": False, "use_spatial_attention": False,
                     "use_ts_context": False},
    "AttNet_wo_T": {"use_app": False, "use_ts_context": False},
    "AttNet_wo_C": {"use_app": False, "use_context_memory": False},
    "pool_mean": {"use_att": False, "pooling": "mean"},
    "pool_max": {"use_att": False, "pooling": "max"},
    "pool_random": {"use_att": False, "pooling": "random-sample"},
}


def ablate(model_cfg, train_cfg, dataset, out_dir, variants=None, seeds=(0,),
           quiet=True, test_seqs_per_id=2):
    """Train each variant on the shared split and tabulate Rank-1 / mAP.

    Returns rows of (variant, rank1, mAP) averaged over seeds. Variants that
    resolve to the same model config are trained once and share a row's
    figures.
    """
    variants = variants or list(ABLATION_VARIANTS)
    train_set, test_set = train_test_split(dataset, test_seqs_per_id)
    rows, scores = [], {}
    for name in variants:
        cfg = replace(model_cfg, **ABLATION_VARIANTS[name])
        key = astuple(cfg)
        if key not in scores:
            r1s, maps = [], []
            for seed in seeds:
                tcfg = replace(train_cfg, seed=seed)
                run_dir = os.path.join(out_dir, f"{name}_seed{seed}")
                model, _, _ = train(cfg, tcfg, train_set, run_dir, quiet=quiet)
                result = evaluate_split(model, test_set.sequences,
                                        tcfg.lambda_sim, cfg.clip_len)
                r1s.append(result.cmc[0])
                maps.append(result.mean_ap)
            scores[key] = (float(np.mean(r1s)), float(np.mean(maps)))
        rows.append((name, *scores[key]))
        if not quiet:
            print(f"{name}: rank-1 {rows[-1][1]:.4f} mAP {rows[-1][2]:.4f}")
    return rows


def write_ablation_table(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "rank1", "mAP"])
        for name, r1, m in rows:
            writer.writerow([name, f"{r1:.4f}", f"{m:.4f}"])
