"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Every workload is offline and closed-loop: one client in one process calls
`talnet` and waits for the result before the next call. Inputs, model
initialisation and rank descriptors all derive from the workload seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from talnet import nn, retrieval, trainer
from talnet.config import DataConfig, ModelConfig, TrainConfig, config_dict
from talnet.data import (VideoDataset, default_schema, generate_synthetic, split_clips,
                         train_test_split)
from talnet.retrieval import EmbeddingRecord

# embed: sequence lengths in frames, each used twice per call. With T = 8,
# 5 frames takes the padded path and 12/21/30 drop a remainder; 1-4 clips each.
EMBED_LENGTHS = (5, 8, 12, 16, 21, 24, 30, 32)
EMBED_IDENTITIES = 8
# Descriptors may be batched differently from the per-sequence reference,
# which reorders float32 sums; mixing two sequences moves them far more.
EMBED_RTOL, EMBED_ATOL = 1e-4, 1e-5

# rank: a MARS-style multi-shot gallery of a few hundred entries.
RANK_QUERY_IDS = 120  # one camera-0 query each; gallery: 1 camera-0 + 2 camera-1 entries
RANK_DISTRACTOR_IDS = 60  # gallery only, one entry per camera
RANK_CLUSTERS = 20  # identities share cluster centres, so near misses exist
RANK_DUPLICATES = 24  # gallery entries copied exactly; ties must keep gallery order
RANK_ID_SPREAD, RANK_NOISE = 0.1, 0.6
RANK_DIST_RTOL = 1e-9  # per-pair dot product vs broadcast sum, float64


def generate(data_cfg):
    d = data_cfg
    return generate_synthetic(
        d.num_identities, d.seqs_per_identity, d.frames_per_seq, default_schema(),
        noise=d.noise, occlusion_prob=d.occlusion_prob, seed=d.seed,
        color_pool=d.color_pool, combo_pool=d.combo_pool,
        brightness_jitter=d.brightness_jitter)


def descriptor_widths(model_cfg, n_attributes):
    return model_cfg.d_g + model_cfg.n_stripes * model_cfg.d_p, n_attributes * model_cfg.d


# --- training ------------------------------------------------------------

@dataclass
class TrainContext:
    train_set: VideoDataset
    train_cfg: TrainConfig
    out_dir: str
    steps: int
    first_log: str = None
    loss_final: float = 0.0


class TrainWorkload:
    """One call is one `trainer.train` run of a fixed step count; one
    operation is a training step of I x V clips."""

    span = "trainer.train"
    count_forward_graph = False

    def __init__(self, **schedule):
        self.schedule = schedule

    def setup(self, seed, out_dir):
        data_cfg = DataConfig(seed=seed)
        train_set, _ = train_test_split(generate(data_cfg), data_cfg.test_seqs_per_id)
        # warmup off: the triplet loss runs at full weight from the first step
        train_cfg = TrainConfig(seed=seed, warmup_epochs=0, triplet_ramp_epochs=1,
                                **self.schedule)
        T = ModelConfig().clip_len
        clips = sum(len(s.frames) // T for s in train_set.sequences)
        batch = train_cfg.batch_identities * train_cfg.clips_per_identity
        epochs = train_cfg.stage1_epochs + train_cfg.stage2_epochs
        return TrainContext(train_set, train_cfg, out_dir, steps=clips // batch * epochs)

    def ops(self, ctx):
        return ctx.steps

    def items(self, ctx):
        return ctx.steps * ctx.train_cfg.batch_identities * ctx.train_cfg.clips_per_identity

    def call(self, ctx):
        return trainer.train(ModelConfig(), ctx.train_cfg, ctx.train_set, ctx.out_dir)

    def check(self, ctx, output):
        """Per-step failure flags: a step fails on a missing or non-finite
        loss row; every step fails when the call's row count, determinism
        or checkpoint round trip is wrong."""
        model, ckpt_path, log_path = output
        with open(log_path) as fh:
            text = fh.read()
        rows = list(csv.DictReader(io.StringIO(text)))
        if ctx.first_log is None:
            ctx.first_log = text
        call_ok = (len(rows) == ctx.steps and text == ctx.first_log
                   and checkpoint_round_trips(model, ckpt_path, ctx))
        failed = []
        for k in range(ctx.steps):
            finite = k < len(rows) and all(
                math.isfinite(float(rows[k][c])) for c in ("L_tri", "L_ide", "L_att", "L"))
            failed.append(not (call_ok and finite))
        if rows:
            last = rows[-1]["epoch"]
            ctx.loss_final = float(np.mean([float(r["L"]) for r in rows if r["epoch"] == last]))
        return failed


def checkpoint_round_trips(model, ckpt_path, ctx):
    """The saved checkpoint loads into a differently initialised model
    bit-for-bit."""
    fresh = trainer.build_model(ModelConfig(), ctx.train_set, ctx.train_cfg.seed + 1)
    nn.load_checkpoint(ckpt_path, fresh)
    loaded = dict(fresh.named_parameters())
    trained = dict(model.named_parameters())
    return loaded.keys() == trained.keys() and all(
        a.data.dtype == loaded[n].data.dtype and a.data.shape == loaded[n].data.shape
        and a.data.tobytes() == loaded[n].data.tobytes() for n, a in trained.items())


# --- embedding -----------------------------------------------------------

@dataclass
class EmbedContext:
    sequences: list
    model: object
    reference: list = None


def embed_dataset(seed):
    """16 sequences of mixed length, 1-4 clips each, some shorter than T."""
    data_cfg = DataConfig(num_identities=EMBED_IDENTITIES, seqs_per_identity=2,
                          frames_per_seq=max(EMBED_LENGTHS), seed=seed)
    dataset = generate(data_cfg)
    lengths = np.random.default_rng([seed, 1]).permutation(np.repeat(EMBED_LENGTHS, 2))
    return VideoDataset(dataset.schema, [replace(s, frames=s.frames[:n])
                                         for s, n in zip(dataset.sequences, lengths)])


class EmbedWorkload:
    """One call embeds all sequences with `retrieval.embed_sequences`; one
    operation is a sequence."""

    span = "retrieval.embed"
    count_forward_graph = True

    def setup(self, seed, out_dir):
        dataset = embed_dataset(seed)
        model_cfg = ModelConfig()
        # a seeded-initialised model goes through a checkpoint, as `talnet eval` loads it
        model = trainer.build_model(model_cfg, dataset, seed)
        path = os.path.join(out_dir, "checkpoint.zip")
        nn.save_checkpoint(path, model, seed, nn.config_hash(config_dict(model.cfg)))
        model = trainer.build_model(model_cfg, dataset, seed)
        nn.load_checkpoint(path, model)
        return EmbedContext(dataset.sequences, model)

    def ops(self, ctx):
        return len(ctx.sequences)

    items = ops

    def call(self, ctx):
        return retrieval.embed_sequences(ctx.sequences, ctx.model, ctx.model.cfg.clip_len)

    def check(self, ctx, records):
        """Per-sequence failure flags: descriptors must be finite, have the
        configured widths and match the sequence's clips embedded alone."""
        if ctx.reference is None:
            ctx.reference = embed_reference(ctx.sequences, ctx.model)
        widths = descriptor_widths(ctx.model.cfg, ctx.model.cfg.n_attributes)
        if len(records) != len(ctx.sequences):
            return [True] * len(ctx.sequences)
        failed = []
        for seq, rec, ref in zip(ctx.sequences, records, ctx.reference):
            ok = ((rec.identity, rec.camera, rec.sequence_id)
                  == (seq.identity, seq.camera, seq.sequence_id))
            for got, want, width in zip((rec.f_app, rec.f_att), ref, widths):
                ok = (ok and got.shape == (width,) and bool(np.all(np.isfinite(got)))
                      and np.allclose(got, want, rtol=EMBED_RTOL, atol=EMBED_ATOL))
            failed.append(not ok)
        return failed


def embed_reference(sequences, model):
    """Each sequence's clips embedded on their own, then averaged."""
    out = []
    for seq in sequences:
        frames = np.stack([c.frames for c in split_clips(seq, model.cfg.clip_len)])
        f_app, f_att = model.descriptors(frames)
        out.append((f_app.mean(axis=0), f_att.mean(axis=0)))
    return out


# --- ranking -------------------------------------------------------------

@dataclass
class RankData:
    queries: list
    gallery: list
    duplicates: list  # gallery sequence ids per exact-duplicate group, in gallery order


def rank_records(seed):
    """Clustered identities over two cameras at the model's descriptor widths."""
    app_dim, att_dim = descriptor_widths(ModelConfig(), default_schema().n_attributes)
    rng = np.random.default_rng([seed, 2])
    n_ids = RANK_QUERY_IDS + RANK_DISTRACTOR_IDS
    centres = []
    for dim in (app_dim, att_dim):
        clusters = rng.standard_normal((RANK_CLUSTERS, dim))
        member = rng.integers(RANK_CLUSTERS, size=n_ids)
        centres.append(clusters[member] + RANK_ID_SPREAD * rng.standard_normal((n_ids, dim)))

    def entry(identity, camera):
        feats = [c[identity] + RANK_NOISE * rng.standard_normal(c.shape[1]) for c in centres]
        return EmbeddingRecord(feats[0], feats[1], identity, camera, 0)

    queries = [entry(i, 0) for i in range(RANK_QUERY_IDS)]
    gallery = [entry(i, cam) for i in range(RANK_QUERY_IDS) for cam in (0, 1, 1)]
    gallery += [entry(i, cam) for i in range(RANK_QUERY_IDS, n_ids) for cam in (0, 1)]
    originals = rng.choice(len(gallery), size=RANK_DUPLICATES, replace=False)
    gallery += [replace(gallery[k]) for k in originals]
    groups = [(k, len(gallery) - RANK_DUPLICATES + j) for j, k in enumerate(originals)]
    order = rng.permutation(len(gallery))
    position = np.argsort(order)
    gallery = [gallery[k] for k in order]
    for sid, rec in enumerate(queries + gallery):
        rec.sequence_id = sid
    duplicates = [sorted(gallery[position[k]].sequence_id for k in g) for g in groups]
    return RankData(queries, gallery, duplicates)


@dataclass
class RankOracle:
    query_ids: list
    orders: list  # ranked gallery sequence ids per query
    distances: list
    cmc: np.ndarray
    mean_ap: float
    skipped: int


def rank_oracle(queries, gallery, lambda_sim, max_rank=20):
    """Multi-shot ranking from broadcast differences and a stable argsort,
    written apart from `retrieval.evaluate`."""
    g_app = np.stack([g.f_app for g in gallery])
    g_att = np.stack([g.f_att for g in gallery])
    g_ids = np.array([g.identity for g in gallery])
    g_cams = np.array([g.camera for g in gallery])
    g_seq = np.array([g.sequence_id for g in gallery])
    query_ids, orders, distances, firsts, aps = [], [], [], [], []
    skipped = 0
    for q in queries:
        dist = (((q.f_app - g_app) ** 2).sum(axis=1)
                + lambda_sim ** 2 * ((q.f_att - g_att) ** 2).sum(axis=1))
        valid = np.flatnonzero((g_ids != q.identity) | (g_cams != q.camera))
        order = valid[np.argsort(dist[valid], kind="stable")]
        hits = np.flatnonzero(g_ids[order] == q.identity)
        if hits.size == 0:
            skipped += 1
            continue
        query_ids.append(q.sequence_id)
        orders.append(g_seq[order].tolist())
        distances.append(dist[order])
        firsts.append(hits[0])
        aps.append(float(np.mean(np.arange(1, hits.size + 1) / (hits + 1))))
    firsts = np.array(firsts)
    cmc = np.array([np.mean(firsts < k) for k in range(1, max_rank + 1)])
    return RankOracle(query_ids, orders, distances, cmc, float(np.mean(aps)), skipped)


def check_ranking(result, oracle, duplicates):
    """Per-query failure flags against the oracle; every query fails when
    CMC, mAP or the skipped count disagree."""
    n = len(oracle.orders)
    if (result.skipped != oracle.skipped or len(result.per_query) != n
            or not np.allclose(result.cmc, oracle.cmc, rtol=0, atol=1e-12)
            or not math.isclose(result.mean_ap, oracle.mean_ap, rel_tol=1e-12)):
        return [True] * n
    failed = []
    for (sid, ranked, dist), want_sid, want, want_dist in zip(
            result.per_query, oracle.query_ids, oracle.orders, oracle.distances):
        pos = {g: k for k, g in enumerate(ranked)}
        in_order = all(
            [pos[g] for g in group] == sorted(pos[g] for g in group)
            for group in duplicates if group[0] in pos)
        failed.append(not (sid == want_sid and ranked == want and in_order
                           and np.allclose(dist, want_dist, rtol=RANK_DIST_RTOL, atol=0)))
    return failed


@dataclass
class RankContext:
    data: RankData
    lambda_sim: float
    oracle: RankOracle = None


class RankWorkload:
    """One call is one `retrieval.evaluate`; one operation is a query."""

    span = "retrieval.evaluate"
    count_forward_graph = False

    def setup(self, seed, out_dir):
        return RankContext(rank_records(seed), TrainConfig().lambda_sim)

    def ops(self, ctx):
        return len(ctx.data.queries)

    def items(self, ctx):
        return len(ctx.data.queries) * len(ctx.data.gallery)

    def call(self, ctx):
        return retrieval.evaluate(ctx.data.queries, ctx.data.gallery, lambda_sim=ctx.lambda_sim)

    def check(self, ctx, result):
        if ctx.oracle is None:
            ctx.oracle = rank_oracle(ctx.data.queries, ctx.data.gallery, ctx.lambda_sim)
        return check_ranking(result, ctx.oracle, ctx.data.duplicates)


WORKLOADS = {
    "train_joint": TrainWorkload(stage1_epochs=0, stage2_epochs=1),
    # a plateau window as long as the run keeps the stage-1 early stop from firing
    "train_app": TrainWorkload(stage1_epochs=4, stage2_epochs=0, plateau_window=4),
    "embed": EmbedWorkload(),
    "rank": RankWorkload(),
}
