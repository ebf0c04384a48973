"""Oracle tests for descriptors, fused distance, and CMC / mAP ranking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet.config import ModelConfig
from talnet.data import VideoDataset, split_clips
from talnet.retrieval import (_GALLERY_BLOCK, EmbeddingRecord, distance_matrix,
                              embed_sequences, evaluate, fused_distance,
                              metrics_report, query_gallery_split, raw_pixel_record)
from talnet.trainer import build_model

# --- brute-force ranking oracle ----------------------------------------------


def _rank_oracle(queries, gallery, lambda_sim, max_rank):
    """Independent CMC / mAP: explicit sort with (distance, index) keys and a
    textbook average-precision sum per query."""
    cmc = np.zeros(max_rank)
    aps = []
    for q in queries:
        entries = []
        for j, g in enumerate(gallery):
            if g.identity == q.identity and g.camera == q.camera:
                continue
            da = q.f_app - g.f_app
            dt = q.f_att - g.f_att
            d = float(da @ da) + lambda_sim ** 2 * float(dt @ dt)
            entries.append((d, j, g.identity))
        if not any(ident == q.identity for _, _, ident in entries):
            continue
        entries.sort(key=lambda e: (e[0], e[1]))
        hits = [k for k, (_, _, ident) in enumerate(entries) if ident == q.identity]
        if hits[0] < max_rank:
            cmc[hits[0]:] += 1
        ap = np.mean([(n + 1) / (r + 1) for n, r in enumerate(hits)])
        aps.append(ap)
    if not aps:
        return np.zeros(max_rank), 0.0
    return cmc / len(aps), float(np.mean(aps))


def _rec(f_app, f_att, identity, camera=0, sid=0):
    return EmbeddingRecord(np.asarray(f_app, float), np.asarray(f_att, float),
                           identity, camera, sid)


# --- fused distance ------------------------------------------------------------


def test_fused_distance_hand_example():
    a = _rec([1.0, 0.0], [2.0], 0)
    b = _rec([0.0, 0.0], [0.0], 1)
    # |d_app|^2 + lambda^2 |d_att|^2 = 1 + 0.25 * 4 = 2
    assert fused_distance(a, b, 0.5) == pytest.approx(2.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_fused_distance_decomposition(seed):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0, 2))
    a = _rec(rng.normal(size=5), rng.normal(size=3), 0)
    b = _rec(rng.normal(size=5), rng.normal(size=3), 1)
    d = fused_distance(a, b, lam)
    concat_a = np.concatenate([a.f_app, lam * a.f_att])
    concat_b = np.concatenate([b.f_app, lam * b.f_att])
    assert d == pytest.approx(float(((concat_a - concat_b) ** 2).sum()), abs=1e-6)
    parts = float(((a.f_app - b.f_app) ** 2).sum()) \
        + lam ** 2 * float(((a.f_att - b.f_att) ** 2).sum())
    assert d == pytest.approx(parts, abs=1e-6)


def test_fused_distance_dim_mismatch():
    with pytest.raises(ValueError):
        fused_distance(_rec([1.0], [1.0], 0), _rec([1.0, 2.0], [1.0], 1), 0.3)


def test_lambda_zero_ignores_attribute_side(rng):
    a = _rec(rng.normal(size=4), rng.normal(size=3), 0)
    b = _rec(a.f_app.copy(), rng.normal(size=3), 1)
    assert fused_distance(a, b, 0.0) == pytest.approx(0.0)


def test_lambda_zero_ranking_is_appearance_only(rng):
    queries = [_rec(rng.normal(size=4), rng.normal(size=3), i, camera=0, sid=i)
               for i in range(3)]
    gallery = [_rec(rng.normal(size=4), rng.normal(size=3), i % 3, camera=1,
                    sid=10 + i) for i in range(9)]
    res_zero = evaluate(queries, gallery, lambda_sim=0.0)
    stripped_q = [_rec(q.f_app, np.zeros(3), q.identity, q.camera, q.sequence_id)
                  for q in queries]
    stripped_g = [_rec(g.f_app, np.zeros(3), g.identity, g.camera, g.sequence_id)
                  for g in gallery]
    res_app = evaluate(stripped_q, stripped_g, lambda_sim=0.7)
    np.testing.assert_allclose(res_zero.cmc, res_app.cmc)
    assert res_zero.mean_ap == pytest.approx(res_app.mean_ap)
    for (s1, o1, _), (s2, o2, _) in zip(res_zero.per_query, res_app.per_query):
        assert s1 == s2 and o1 == o2


# --- CMC / mAP ------------------------------------------------------------------


def test_single_query_ap_half():
    # matches at ranks 1 and 4 -> AP = (1/1 + 2/4) / 2 = 0.75; at ranks 2 and
    # 4 -> (1/2 + 2/4)/2 = 0.5
    q = _rec([0.0], [], 7, camera=0, sid=0)
    gallery = [
        _rec([3.0], [], 9, 1, 1),   # d=9
        _rec([1.0], [], 7, 1, 2),   # d=1  rank 2
        _rec([0.5], [], 5, 1, 3),   # d=0.25 rank 1
        _rec([4.0], [], 7, 1, 4),   # d=16 rank 4
    ]
    res = evaluate([q], gallery, lambda_sim=0.3, max_rank=4)
    assert res.mean_ap == pytest.approx(0.5)
    np.testing.assert_allclose(res.cmc, [0.0, 1.0, 1.0, 1.0])


def test_perfect_ranking():
    q = _rec([0.0], [], 1, 0, 0)
    gallery = [_rec([0.1], [], 1, 1, 1), _rec([5.0], [], 2, 1, 2)]
    res = evaluate([q], gallery, max_rank=2)
    assert res.mean_ap == pytest.approx(1.0)
    np.testing.assert_allclose(res.cmc, [1.0, 1.0])


def test_tie_breaks_by_gallery_index():
    q = _rec([0.0], [], 1, 0, 0)
    # two gallery entries at identical distance; the wrong id sits first
    gallery = [_rec([1.0], [], 2, 1, 1), _rec([-1.0], [], 1, 1, 2)]
    res = evaluate([q], gallery, max_rank=2)
    np.testing.assert_allclose(res.cmc, [0.0, 1.0])


def test_multishot_excludes_same_camera_same_id():
    q = _rec([0.0], [], 1, 0, 0)
    gallery = [
        _rec([0.0], [], 1, 0, 1),  # same id + same camera: excluded
        _rec([2.0], [], 1, 1, 2),
        _rec([1.0], [], 3, 1, 3),
    ]
    res = evaluate([q], gallery, max_rank=2)
    np.testing.assert_allclose(res.cmc, [0.0, 1.0])


def test_skipped_query_warns():
    q = _rec([0.0], [], 42, 0, 0)
    gallery = [_rec([1.0], [], 1, 1, 1)]
    with pytest.warns(UserWarning):
        res = evaluate([q], gallery)
    assert res.skipped == 1
    assert res.mean_ap == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_ranking_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n_ids = int(rng.integers(2, 8))
    n_q = int(rng.integers(1, 11))
    n_g = int(rng.integers(n_ids, 31))
    lam = float(rng.uniform(0, 1))
    queries = [_rec(rng.normal(size=4), rng.normal(size=2),
                    int(rng.integers(n_ids)), camera=0, sid=i)
               for i in range(n_q)]
    gallery = [_rec(rng.normal(size=4), rng.normal(size=2),
                    int(rng.integers(n_ids)), camera=int(rng.integers(3)),
                    sid=100 + j) for j in range(n_g)]
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        res = evaluate(queries, gallery, lambda_sim=lam, max_rank=10)
    oc, omap = _rank_oracle(queries, gallery, lam, 10)
    np.testing.assert_allclose(res.cmc, oc, atol=1e-12)
    assert res.mean_ap == pytest.approx(omap, abs=1e-12)
    # CMC must be non-decreasing in k
    assert np.all(np.diff(res.cmc) >= -1e-15)


def test_duplicate_gallery_entries_rank1(rng):
    q = _rec(rng.normal(size=3), [], 1, 0, 0)
    dup = _rec(q.f_app.copy(), np.zeros(0), 1, 1, 1)
    gallery = [dup, _rec(rng.normal(size=3), np.zeros(0), 2, 1, 2),
               _rec(q.f_app.copy(), np.zeros(0), 1, 2, 3)]
    res = evaluate([q], gallery, max_rank=3)
    assert res.cmc[0] == pytest.approx(1.0)
    assert res.mean_ap == pytest.approx(1.0)


def test_gallery_permutation_invariance_without_ties(rng):
    queries = [_rec(rng.normal(size=4), rng.normal(size=2), i, 0, i)
               for i in range(4)]
    gallery = [_rec(rng.normal(size=4), rng.normal(size=2), j % 4, 1, 10 + j)
               for j in range(12)]
    res = evaluate(queries, gallery, max_rank=12)
    perm = rng.permutation(12)
    res_p = evaluate(queries, [gallery[j] for j in perm], max_rank=12)
    np.testing.assert_allclose(res.cmc, res_p.cmc, atol=1e-12)
    assert res.mean_ap == pytest.approx(res_p.mean_ap, abs=1e-12)


# --- blocked distances ------------------------------------------------------------


def _records(rng, n, app_dim, att_dim, n_ids, camera=None, sid0=0, dtype=float, loc=0.0):
    return [EmbeddingRecord(rng.normal(loc, size=app_dim).astype(dtype),
                            rng.normal(loc, size=att_dim).astype(dtype),
                            int(rng.integers(n_ids)),
                            int(rng.integers(2)) if camera is None else camera, sid0 + k)
            for k in range(n)]


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_distance_matrix_matches_fused_distance_across_blocks(rng, dtype, rtol):
    queries = _records(rng, 5, 13, 6, 4, dtype=dtype)
    gallery = _records(rng, 2 * _GALLERY_BLOCK + 7, 13, 6, 4, sid0=100, dtype=dtype)
    dist = distance_matrix(queries, gallery, 0.4)
    assert dist.shape == (5, len(gallery)) and dist.dtype == np.float64
    want = np.array([[fused_distance(q, g, 0.4) for g in gallery] for q in queries])
    np.testing.assert_allclose(dist, want, rtol=rtol, atol=0)


def test_duplicates_in_different_blocks_tie_bitwise_in_gallery_order(rng):
    # far from the origin |a|^2 + |b|^2 - 2ab cancels away most digits; the
    # broadcast difference keeps them, and puts a copied record at exactly 0
    queries = _records(rng, 6, 37, 11, 3, camera=0, loc=1000.0)
    gallery = _records(rng, 2 * _GALLERY_BLOCK + 9, 37, 11, 3, camera=1, sid0=100, loc=1000.0)
    copies = (3, _GALLERY_BLOCK + 10, 2 * _GALLERY_BLOCK + 4)
    for k in copies[1:]:
        gallery[k] = replace(gallery[copies[0]], sequence_id=100 + k)
    queries[0] = replace(gallery[copies[0]], identity=queries[0].identity, camera=0,
                         sequence_id=0)
    dist = distance_matrix(queries, gallery, 0.3)
    for k in copies[1:]:
        np.testing.assert_array_equal(dist[:, k], dist[:, copies[0]])
    assert dist[0, copies[0]] == 0.0
    want = np.array([[fused_distance(q, g, 0.3) for g in gallery] for q in queries])
    np.testing.assert_allclose(dist, want, rtol=1e-12, atol=0)
    res = evaluate(queries, gallery, lambda_sim=0.3)
    assert len(res.per_query) == len(queries)
    for _, ranked, _ in res.per_query:
        pos = [ranked.index(100 + k) for k in copies]
        assert pos == [pos[0], pos[0] + 1, pos[0] + 2]


@pytest.mark.parametrize("app_dim, att_dim", [(5, 0), (0, 4)])
def test_ablated_branch_ranking_across_blocks(rng, app_dim, att_dim):
    queries = _records(rng, 7, app_dim, att_dim, 5, camera=0)
    gallery = _records(rng, 2 * _GALLERY_BLOCK + 3, app_dim, att_dim, 5, sid0=100)
    dist = distance_matrix(queries, gallery, 0.6)
    want = np.array([[fused_distance(q, g, 0.6) for g in gallery] for q in queries])
    np.testing.assert_allclose(dist, want, rtol=1e-12, atol=0)
    res = evaluate(queries, gallery, lambda_sim=0.6, max_rank=10)
    oc, omap = _rank_oracle(queries, gallery, 0.6, 10)
    np.testing.assert_allclose(res.cmc, oc, atol=1e-12)
    assert res.mean_ap == pytest.approx(omap, abs=1e-12)


def test_ranked_ids_are_the_records_own_objects(rng):
    # ids above 256, so a fresh int is never the cached small-int object
    queries = _records(rng, 6, 5, 3, 4, camera=0, sid0=1000)
    gallery = _records(rng, 40, 5, 3, 4, sid0=5000)
    res = evaluate(queries, gallery, lambda_sim=0.3)
    dist = distance_matrix(queries, gallery, 0.3)
    oc, omap = _rank_oracle(queries, gallery, 0.3, 20)
    np.testing.assert_allclose(res.cmc, oc, atol=1e-12)
    assert res.mean_ap == pytest.approx(omap, abs=1e-12)
    assert len(res.per_query) == len(queries)
    for q, (qid, ranked, dists), row in zip(queries, res.per_query, dist):
        assert qid is q.sequence_id
        order = [j for j in np.argsort(row, kind="stable")
                 if not (gallery[j].identity == q.identity and gallery[j].camera == q.camera)]
        assert all(sid is gallery[j].sequence_id for sid, j in zip(ranked, order, strict=True))
        assert dists == row[order].tolist()


def test_empty_queries_and_empty_gallery(rng):
    queries = _records(rng, 3, 4, 2, 2, camera=0)
    gallery = _records(rng, 5, 4, 2, 2, camera=1, sid0=10)
    assert distance_matrix([], gallery, 0.3).shape == (0, 5)
    assert distance_matrix(queries, [], 0.3).shape == (3, 0)
    res = evaluate([], gallery, max_rank=4)
    np.testing.assert_array_equal(res.cmc, np.zeros(4))
    assert (res.mean_ap, res.per_query, res.skipped) == (0.0, [], 0)
    with pytest.warns(UserWarning):
        res = evaluate(queries, [], max_rank=4)
    np.testing.assert_array_equal(res.cmc, np.zeros(4))
    assert (res.mean_ap, res.per_query, res.skipped) == (0.0, [], 3)


def test_evaluate_rejects_mismatched_widths(rng):
    queries = _records(rng, 2, 4, 3, 2, camera=0)
    gallery = _records(rng, _GALLERY_BLOCK + 5, 4, 3, 2, camera=1, sid0=10)
    # a width-1 descriptor would broadcast silently against the block
    narrow = [replace(queries[0], f_app=np.ones(1))]
    wide_att = [replace(queries[0], f_att=np.ones(4))]
    late = gallery[:]
    late[_GALLERY_BLOCK + 2] = replace(late[0], f_att=np.ones(1))
    for q, g in ((narrow, gallery), (wide_att, gallery), (queries, late)):
        with pytest.raises(ValueError, match="dim mismatch"):
            evaluate(q, g)


# --- helpers -----------------------------------------------------------------


def test_query_gallery_split():
    recs = [_rec([0.0], [], i, camera=i % 3, sid=i) for i in range(9)]
    q, g = query_gallery_split(recs)
    assert all(r.camera == 0 for r in q)
    assert all(r.camera != 0 for r in g)
    assert len(q) + len(g) == 9


def test_raw_pixel_record(tiny_dataset):
    seq = tiny_dataset.sequences[0]
    rec = raw_pixel_record(seq)
    assert rec.f_app.shape == (np.prod(seq.frames.shape[1:]),)
    np.testing.assert_allclose(rec.f_app.reshape(seq.frames.shape[1:]),
                               seq.frames.mean(axis=0), atol=1e-6)
    assert rec.identity == seq.identity


def test_metrics_report_format():
    res = evaluate([_rec([0.0], [], 1, 0, 0)],
                   [_rec([1.0], [], 1, 1, 1), _rec([9.0], [], 2, 1, 2)],
                   max_rank=20)
    text = metrics_report(res)
    assert "rank-1\t1.0000" in text
    assert "mAP\t1.0000" in text


# --- embedding -------------------------------------------------------------------


@pytest.mark.parametrize("use_att", [True, False])
def test_embed_sequences_matches_each_sequence_embedded_alone(tiny_dataset, use_att):
    """Batched chunks must reproduce the per-sequence clip mean; a 10-clip
    sequence crosses a chunk boundary and a 3-frame one is padded."""
    cfg = ModelConfig(backbone_channels=(4, 8), clip_len=4, d_v=8, d=8, attention_hidden=8,
                      d_g=8, d_p=8, use_att=use_att)
    long_seq = replace(tiny_dataset.sequences[0],
                       frames=np.concatenate([s.frames for s in tiny_dataset.sequences[:4]]))
    seqs = [long_seq, replace(tiny_dataset.sequences[1], frames=tiny_dataset.sequences[1].frames[:3])]
    seqs += tiny_dataset.sequences[2:5]
    model = build_model(cfg, VideoDataset(tiny_dataset.schema, seqs), seed=0)
    records = embed_sequences(seqs, model, cfg.clip_len)
    assert len(records) == len(seqs)
    for seq, rec in zip(seqs, records):
        assert (rec.identity, rec.camera, rec.sequence_id) == \
            (seq.identity, seq.camera, seq.sequence_id)
        f_app, f_att = model.descriptors(np.stack([c.frames for c in split_clips(seq, 4)]))
        np.testing.assert_allclose(rec.f_app, f_app.mean(axis=0), rtol=1e-4, atol=1e-5)
        if use_att:
            np.testing.assert_allclose(rec.f_att, f_att.mean(axis=0), rtol=1e-4, atol=1e-5)
        else:
            assert rec.f_att.shape == (0,)
    assert embed_sequences([], model, cfg.clip_len) == []
