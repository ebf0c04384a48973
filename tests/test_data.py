import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import data as D
from talnet.retrieval import evaluate, query_gallery_split, raw_pixel_record


def test_schema_validation():
    with pytest.raises(ValueError):
        D.AttributeSchema(attributes=(("hat", ("one",)),))
    with pytest.raises(ValueError):
        D.AttributeSchema(attributes=(("a", ("x", "y")), ("a", ("x", "y"))))


def test_id_level_labels_constant(schema):
    ds = D.generate_synthetic(2, 1, 8, schema, noise=0.0, seed=0)
    assert len(ds.sequences) == 2
    by_id = {}
    for s in ds.sequences:
        by_id.setdefault(s.identity, []).append(s.attribute_labels)
    for labels in by_id.values():
        for vec in labels[1:]:
            np.testing.assert_array_equal(vec, labels[0])


def test_generator_deterministic(schema):
    a = D.generate_synthetic(3, 2, 6, schema, seed=42)
    b = D.generate_synthetic(3, 2, 6, schema, seed=42)
    for sa, sb in zip(a.sequences, b.sequences):
        np.testing.assert_array_equal(sa.frames, sb.frames)
        np.testing.assert_array_equal(sa.attribute_labels, sb.attribute_labels)


def test_generator_rejects_empty_schema():
    empty = D.AttributeSchema(attributes=())
    with pytest.raises(ValueError):
        D.generate_synthetic(2, 1, 4, empty)


def test_raw_pixel_rank1_band(schema):
    # nearest-neighbor on frame-averaged raw pixels: above 1/20 chance,
    # below 0.9 -- the generator difficulty is calibrated to this band
    ds = D.generate_synthetic(20, 4, 8, schema, noise=0.05, seed=7)
    records = [raw_pixel_record(s) for s in ds.sequences]
    queries, gallery = query_gallery_split(records)
    result = evaluate(queries, gallery, lambda_sim=0.0)
    assert 1 / 20 < result.cmc[0] < 0.9, result.cmc[0]


def test_split_clips_even():
    seq = _seq(16, identity=3, camera=1)
    clips = D.split_clips(seq, 8)
    assert len(clips) == 2
    np.testing.assert_array_equal(clips[0].frames, seq.frames[:8])
    np.testing.assert_array_equal(clips[1].frames, seq.frames[8:])
    assert all((c.identity, c.camera, c.sequence_id) == (seq.identity, seq.camera, seq.sequence_id)
               for c in clips)


def test_split_clips_drops_remainder():
    clips = D.split_clips(_seq(20), 8)
    assert len(clips) == 2  # frames 16..19 dropped


def test_split_clips_pads_short_sequence():
    seq = _seq(5)
    clips = D.split_clips(seq, 8)
    assert len(clips) == 1
    np.testing.assert_array_equal(clips[0].frames[5:], np.repeat(seq.frames[4:5], 3, axis=0))


@given(st.integers(1, 40), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_split_clips_partition_property(n_frames, T):
    clips = D.split_clips(_seq(n_frames), T)
    if n_frames >= T:
        assert len(clips) == n_frames // T
        covered = np.concatenate([c.frames for c in clips])
        np.testing.assert_array_equal(covered, _seq(n_frames).frames[: len(covered)])
    else:
        assert len(clips) == 1


def _seq(n_frames, identity=0, camera=0):
    frames = np.arange(n_frames, dtype=np.float32)[:, None, None, None] * np.ones(
        (1, 3, 4, 2), dtype=np.float32)
    return D.VideoSequence(frames=frames, identity=identity, camera=camera,
                           attribute_labels=np.array([0, 1]), sequence_id=identity)


def _clips_for(n_ids, clips_per_id):
    clips = []
    for i in range(n_ids):
        for k in range(clips_per_id):
            clips.append(D.VideoSequence(frames=np.zeros((2, 3, 4, 2), np.float32),
                                         identity=i, camera=0,
                                         attribute_labels=np.array([0]), sequence_id=i * 10 + k))
    return clips


def test_pk_sample_shape(rng):
    batch = D.pk_sample(_clips_for(10, 5), I=8, V=4, rng=rng)
    assert len(batch) == 32
    ids = [c.identity for c in batch]
    groups = {i: ids.count(i) for i in set(ids)}
    assert len(groups) == 8
    assert all(v == 4 for v in groups.values())


def test_pk_sample_single(rng):
    assert len(D.pk_sample(_clips_for(3, 3), I=1, V=1, rng=rng)) == 1


def test_pk_sample_replacement_when_short(rng):
    clips = _clips_for(2, 2)
    batch = D.pk_sample(clips, I=2, V=4, rng=rng)
    seqs = [c.sequence_id for c in batch if c.identity == 0]
    assert len(seqs) == 4 and len(set(seqs)) <= 2  # repeats forced


def test_pk_sample_too_many_identities(rng):
    with pytest.raises(ValueError):
        D.pk_sample(_clips_for(3, 2), I=4, V=2, rng=rng)


def test_random_erase_identity_at_zero(rng):
    clip = _clips_for(1, 1)[0]
    out = D.random_erase(clip, 0.0, rng)
    np.testing.assert_array_equal(out.frames, clip.frames)


def test_random_erase_consistent_across_frames(rng):
    clip = D.VideoSequence(frames=np.zeros((4, 3, 16, 8), np.float32), identity=0,
                           camera=0, attribute_labels=np.array([0]))
    out = D.random_erase(clip, 1.0, rng)
    changed = np.any(out.frames != clip.frames, axis=1)  # (T, H, W)
    assert changed.any()
    # same rectangle in every frame
    for t in range(1, 4):
        np.testing.assert_array_equal(changed[t], changed[0])


def test_random_erase_probability_monte_carlo():
    rng = np.random.default_rng(99)
    clip = D.VideoSequence(frames=np.zeros((2, 3, 16, 8), np.float32), identity=0,
                           camera=0, attribute_labels=np.array([0]))
    erased = sum(
        np.any(D.random_erase(clip, 0.3, rng).frames != 0) for _ in range(10_000))
    assert erased / 10_000 == pytest.approx(0.3, abs=0.02)


def test_annotation_roundtrip(tmp_path, schema):
    labels = {0: np.array([0, 1, 2, 0]), 1: np.array([2, 3, 0, 1])}
    path = tmp_path / "ann.tsv"
    D.write_annotations(path, schema, labels)
    schema2, labels2 = D.read_annotations(path)
    assert schema2.names == schema.names
    assert schema2.category_counts == schema.category_counts
    for k in labels:
        np.testing.assert_array_equal(labels2[k], labels[k])


def test_annotation_rejects_duplicates(tmp_path, schema):
    path = tmp_path / "ann.tsv"
    D.write_annotations(path, schema, {0: np.array([0, 1, 2, 0])})
    with open(path, "a") as fh:
        fh.write("0\t1\t1\t1\t1\n")
    with pytest.raises(ValueError):
        D.read_annotations(path)


@pytest.mark.parametrize("row", ["1\t2\t3\t0\n", "1\t2\t3\t0\t1\t2\n"],
                         ids=["too_few", "too_many"])
def test_annotation_rejects_a_row_of_the_wrong_length(tmp_path, schema, row):
    path = tmp_path / "ann.tsv"
    D.write_annotations(path, schema, {0: np.array([0, 1, 2, 0])})
    with open(path, "a") as fh:
        fh.write(row)
    n_labels = len(row.split("\t")) - 1
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 4 labels, got {n_labels}")):
        D.read_annotations(path)


def test_dataset_roundtrip(tmp_path, tiny_dataset):
    D.save_dataset(tmp_path / "ds", tiny_dataset)
    loaded = D.load_dataset(tmp_path / "ds")
    assert len(loaded.sequences) == len(tiny_dataset.sequences)
    for a, b in zip(tiny_dataset.sequences, loaded.sequences):
        np.testing.assert_array_equal(a.frames, b.frames)
        assert (a.identity, a.camera, a.sequence_id) == (b.identity, b.camera, b.sequence_id)


def test_train_test_split(tiny_dataset):
    with pytest.raises(ValueError):
        D.train_test_split(tiny_dataset, test_seqs_per_id=2)  # only 2 per id
    train, test = D.train_test_split(tiny_dataset, test_seqs_per_id=1)
    assert len(train.sequences) == len(test.sequences) == 4
    assert {s.identity for s in train.sequences} == {s.identity for s in test.sequences}
