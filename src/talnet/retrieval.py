"""Video-level descriptors, fused distance, ranking, CMC and mAP.

A sequence's descriptor is the mean of its clips' descriptors. Embedding
stacks the clips of all sequences and runs them through the model in
chunks, with no autograd graph.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import split_clips


@dataclass
class EmbeddingRecord:
    f_app: np.ndarray  # may be zero-length when the branch is ablated
    f_att: np.ndarray
    identity: int
    camera: int
    sequence_id: int


@dataclass
class RankingResult:
    cmc: np.ndarray  # Rank-k accuracy, k = 1..K
    mean_ap: float
    per_query: list = field(default_factory=list)  # (sequence_id, ranked gallery ids, distances)
    skipped: int = 0


def fused_distance(a, b, lambda_sim):
    """Squared norm of the concatenated difference [d_app, lambda * d_att].

    Decomposes as |d_app|^2 + lambda^2 |d_att|^2; smaller means more similar,
    so ranking sorts ascending.
    """
    if a.f_app.shape != b.f_app.shape or a.f_att.shape != b.f_att.shape:
        raise ValueError(f"descriptor dim mismatch: {a.f_app.shape}/{a.f_att.shape} "
                         f"vs {b.f_app.shape}/{b.f_att.shape}")
    d_app = a.f_app - b.f_app
    d_att = lambda_sim * (a.f_att - b.f_att)
    return float(d_app @ d_app + d_att @ d_att)


# Gallery records stacked at a time by `distance_matrix`. Stacking the whole
# gallery, or broadcasting every query at once, would set the peak memory of
# ranking; at the default descriptor widths (320 + 256 floats) a block of 64
# keeps each query's difference arrays near 300 KB.
_GALLERY_BLOCK = 64


def distance_matrix(queries, gallery, lambda_sim):
    """(Q, G) float64 matrix of `fused_distance`, block by block.

    Each query's broadcast difference against a block of gallery descriptors
    is squared and summed row by row, never expanded as |a|^2 + |b|^2 - 2ab,
    so equal records get bit-equal distances wherever they sit in the gallery.
    Sums run in the records' dtype.
    """
    out = np.empty((len(queries), len(gallery)))
    widths = {(r.f_app.shape, r.f_att.shape) for r in (*queries, *gallery)}
    if queries and gallery and len(widths) > 1:
        raise ValueError(f"descriptor dim mismatch: f_app/f_att shapes {sorted(widths)}")
    lam2 = lambda_sim ** 2
    for lo in range(0, len(gallery), _GALLERY_BLOCK):
        block = gallery[lo:lo + _GALLERY_BLOCK]
        g_app = np.stack([g.f_app for g in block])
        g_att = np.stack([g.f_att for g in block])
        for i, q in enumerate(queries):
            d_app = q.f_app - g_app
            d_att = q.f_att - g_att
            out[i, lo:lo + len(block)] = (np.einsum("ij,ij->i", d_app, d_app)
                                          + lam2 * np.einsum("ij,ij->i", d_att, d_att))
    return out


def evaluate(queries, gallery, lambda_sim=0.3, max_rank=20):
    """CMC / mAP over a ranked gallery.

    Per query, gallery entries with the same identity AND the same camera
    are excluded (MARS-style). On a cross-camera split nothing is excluded,
    so one gallery entry per identity ranks as iLIDS-VID's protocol does.
    Distance ties break by gallery index. Queries whose identity is absent
    from the (filtered) gallery are skipped with a warning.

    One stable argsort orders every row by distance, ties by gallery index;
    dropping the excluded entries from a row keeps the rest in the order a
    sort of the kept entries alone would give.
    """
    dist = distance_matrix(queries, gallery, lambda_sim)
    orders = np.argsort(dist, axis=1, kind="stable")
    g_ids = np.array([g.identity for g in gallery])
    g_cams = np.array([g.camera for g in gallery])
    # ids ranked as the records' own objects: an object array makes no new ints
    g_seq = np.empty(len(gallery), dtype=object)
    g_seq[:] = [g.sequence_id for g in gallery]
    cmc_hits = np.zeros(max_rank)
    aps = []
    per_query = []
    skipped = 0
    for i, q in enumerate(queries):
        order = orders[i]
        matches = g_ids[order] == q.identity
        keep = ~(matches & (g_cams[order] == q.camera))
        order, matches = order[keep], matches[keep]
        ranks = np.flatnonzero(matches)
        if ranks.size == 0:
            skipped += 1
            continue
        if ranks[0] < max_rank:
            cmc_hits[ranks[0]:] += 1
        precisions = (np.arange(len(ranks)) + 1) / (ranks + 1)
        aps.append(float(precisions.mean()))
        per_query.append((q.sequence_id, g_seq[order].tolist(), dist[i, order].tolist()))
    n_eval = len(aps)
    if skipped:
        warnings.warn(f"{skipped} queries had no valid gallery match and were skipped")
    if n_eval == 0:
        return RankingResult(cmc=np.zeros(max_rank), mean_ap=0.0, skipped=skipped)
    return RankingResult(cmc=cmc_hits / n_eval, mean_ap=float(np.mean(aps)),
                         per_query=per_query, skipped=skipped)


def raw_pixel_record(seq):
    """Frame-averaged raw pixels: the untrained retrieval baseline."""
    return EmbeddingRecord(
        f_app=seq.frames.mean(axis=0).ravel().astype(np.float64),
        f_att=np.zeros(0),
        identity=seq.identity, camera=seq.camera, sequence_id=seq.sequence_id)


# Clips per forward. The region-head conv1 patch rows hold 320 floats per
# input pixel, so an unbounded batch would set the embedding's peak memory.
_EMBED_CHUNK = 8


def embed_sequences(sequences, model, T):
    """Split every sequence into clips, embed the clips of all sequences in
    chunks of at most `_EMBED_CHUNK`, and average each sequence's clip
    features per branch."""
    if not sequences:
        return []
    clips = [split_clips(s, T) for s in sequences]
    frames = [c.frames for seq_clips in clips for c in seq_clips]
    chunks = [model.descriptors(np.stack(frames[i:i + _EMBED_CHUNK]))
              for i in range(0, len(frames), _EMBED_CHUNK)]
    f_app, f_att = (None if rows[0] is None else np.concatenate(rows) for rows in zip(*chunks))
    records, lo = [], 0
    for seq, seq_clips in zip(sequences, clips):
        hi = lo + len(seq_clips)
        records.append(EmbeddingRecord(
            f_app=_clip_mean(f_app, lo, hi), f_att=_clip_mean(f_att, lo, hi),
            identity=seq.identity, camera=seq.camera, sequence_id=seq.sequence_id))
        lo = hi
    return records


def _clip_mean(f, lo, hi):
    """Mean of clip rows lo:hi; zero-length when the branch is ablated."""
    return f[lo:hi].mean(axis=0) if f is not None else np.zeros(0, dtype=np.float32)


def query_gallery_split(sequences):
    """Cross-camera protocol: camera 0 probes the rest."""
    queries = [s for s in sequences if s.camera == 0]
    gallery = [s for s in sequences if s.camera != 0]
    return queries, gallery


def write_embeddings(path, records):
    """Text table: sequence_id, identity, camera, then f_app and f_att values."""
    with open(path, "w") as fh:
        fh.write("sequence_id\tidentity\tcamera\tf_app\tf_att\n")
        for r in records:
            app = ",".join(f"{v:.8g}" for v in r.f_app)
            att = ",".join(f"{v:.8g}" for v in r.f_att)
            fh.write(f"{r.sequence_id}\t{r.identity}\t{r.camera}\t{app}\t{att}\n")


def metrics_report(result):
    lines = ["metric\tvalue"]
    for k in (1, 5, 10, 20):
        if k <= len(result.cmc):
            lines.append(f"rank-{k}\t{result.cmc[k - 1]:.4f}")
    lines.append(f"mAP\t{result.mean_ap:.4f}")
    if result.skipped:
        lines.append(f"skipped_queries\t{result.skipped}")
    return "\n".join(lines) + "\n"
