"""Synthetic video-person data, annotation files, clip splitting, sampling.

The generator stands in for real re-id video datasets: every identity gets a
base body color plus attribute-determined patches at fixed horizontal zones,
rendered with per-frame jitter, camera-specific gain/tint, additive noise and
random occluding rectangles. Zone layout is documented in `attribute_zones`
so spatial attention has a discoverable target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_FRAME_SHAPE = (3, 32, 16)  # C, H, W (desk-scale stand-in for 3x224x112)


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered list of named attributes with their category labels."""

    attributes: tuple  # of (name, tuple of category names)

    def __post_init__(self):
        names = [name for name, _ in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError("attribute names must be unique")
        for name, cats in self.attributes:
            if len(cats) < 2:
                raise ValueError(f"attribute {name!r} needs >= 2 categories")

    @property
    def n_attributes(self):
        return len(self.attributes)

    @property
    def category_counts(self):
        return [len(cats) for _, cats in self.attributes]

    @property
    def names(self):
        return [name for name, _ in self.attributes]


def default_schema():
    """Four attributes ordered top-down along the body."""
    return AttributeSchema(attributes=(
        ("headwear", ("none", "cap", "hood")),
        ("top_color", ("red", "green", "blue", "yellow")),
        ("bottom_color", ("dark", "light", "denim", "khaki")),
        ("footwear", ("sneaker", "boot", "sandal")),
    ))


@dataclass
class VideoSequence:
    frames: np.ndarray  # (F, C, H, W) float32 in [0,1]
    identity: int
    camera: int
    attribute_labels: np.ndarray  # (N,) int
    sequence_id: int = -1


@dataclass
class VideoDataset:
    schema: AttributeSchema
    sequences: list

    @property
    def identities(self):
        return sorted({s.identity for s in self.sequences})

    def __len__(self):
        return len(self.sequences)


def frame_layout(frame_shape=DEFAULT_FRAME_SHAPE):
    """Column bands of the rendered frame.

    Border columns carry a random per-sequence background color; the body
    band carries the identity's base color; the patch band (right half of
    the body) is where attribute zones are drawn.
    """
    _, H, W = frame_shape
    border = W // 4
    return {"border_left": (0, border), "border_right": (W - border, W),
            "body": (border, W - border), "patch": (W // 2, W - border)}


def attribute_zones(n_attributes, frame_shape=DEFAULT_FRAME_SHAPE):
    """Row/column bounds of the patch zone for each attribute (top to bottom).

    Zone n occupies rows [n*H/N, (n+1)*H/N) within the patch column band;
    the rest of the body band shows the identity's base color.
    """
    _, H, W = frame_shape
    zones = []
    edges = np.linspace(0, H, n_attributes + 1).astype(int)
    c0, c1 = frame_layout(frame_shape)["patch"]
    for n in range(n_attributes):
        zones.append((edges[n], edges[n + 1], c0, c1))
    return zones


def _hue_palette(k, rng, sat=0.9, val=0.9):
    """k well-separated RGB colors from evenly spaced hues (random rotation)."""
    hues = (np.arange(k) / k + rng.uniform()) % 1.0
    cols = []
    for h in hues:
        i = int(h * 6) % 6
        f = h * 6 - int(h * 6)
        p, q, t = val * (1 - sat), val * (1 - f * sat), val * (1 - (1 - f) * sat)
        cols.append([
            (val, q, p, p, t, val)[i],
            (t, val, val, q, p, p)[i],
            (p, p, t, val, val, q)[i],
        ])
    return np.asarray(cols, dtype=np.float32)


CAMERA_GAINS = {
    0: np.array([1.00, 1.00, 1.00], dtype=np.float32),
    1: np.array([0.70, 0.85, 1.05], dtype=np.float32),
}


def generate_synthetic(num_identities, seqs_per_identity, frames_per_seq, schema,
                       noise=0.05, occlusion_prob=0.3, seed=0,
                       frame_shape=DEFAULT_FRAME_SHAPE, color_pool=None,
                       combo_pool=None, brightness_jitter=0.15):
    """Deterministic synthetic video-person dataset.

    Identities draw base colors from a pool of `color_pool` colors and
    attribute-label vectors from a pool of `combo_pool` distinct combinations,
    so that some identity pairs share appearance but differ in attributes and
    vice versa (pool strides are coprime-ish so no pair shares both).
    Sequences alternate cameras; cameras apply different channel gains.
    """
    if schema.n_attributes == 0:
        raise ValueError("schema must contain at least one attribute")
    if min(num_identities, seqs_per_identity, frames_per_seq) < 1:
        raise ValueError("all counts must be positive")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    C, H, W = frame_shape
    N = schema.n_attributes
    if color_pool is None:
        color_pool = max(2, (num_identities + 1) // 2)
    if combo_pool is None:
        combo_pool = max(2, (num_identities + 2) // 3)

    base_colors = _hue_palette(color_pool, rng)
    # distinct attribute-label combos
    combos = []
    seen = set()
    while len(combos) < combo_pool:
        v = tuple(int(rng.integers(m)) for m in schema.category_counts)
        if v not in seen:
            seen.add(v)
            combos.append(np.asarray(v, dtype=np.int64))
    # one color per (attribute, category)
    cat_colors = [_hue_palette(m, rng, sat=1.0, val=0.8) for m in schema.category_counts]
    zones = attribute_zones(N, frame_shape)

    layout = frame_layout(frame_shape)
    body_c0, body_c1 = layout["body"]
    sequences = []
    seq_id = 0
    for i in range(num_identities):
        color = base_colors[i % color_pool] + rng.uniform(-0.03, 0.03, size=3).astype(np.float32)
        labels = combos[i % len(combos)]
        for s in range(seqs_per_identity):
            camera = s % len(CAMERA_GAINS)
            gain = CAMERA_GAINS[camera]
            background = rng.uniform(0.0, 1.0, size=3).astype(np.float32)
            illumination = rng.uniform(0.7, 1.3)
            frames = np.empty((frames_per_seq, C, H, W), dtype=np.float32)
            for t in range(frames_per_seq):
                img = np.broadcast_to(background[:, None, None], (C, H, W)).copy()
                img[:, :, body_c0:body_c1] = color[:, None, None]
                shift = int(rng.integers(-1, 2))  # small vertical bob
                for n, (r0, r1, c0, c1) in enumerate(zones):
                    r0s = np.clip(r0 + shift, 0, H)
                    r1s = np.clip(r1 + shift, 0, H)
                    img[:, r0s:r1s, c0:c1] = cat_colors[n][labels[n]][:, None, None]
                bright = illumination * (1.0 + brightness_jitter * rng.standard_normal())
                img *= bright * gain[:, None, None]
                if noise > 0:
                    img += noise * rng.standard_normal(img.shape).astype(np.float32)
                if rng.uniform() < occlusion_prob:
                    img = _occlude(img, rng)
                frames[t] = np.clip(img, 0.0, 1.0)
            sequences.append(VideoSequence(frames=frames, identity=i, camera=camera,
                                           attribute_labels=labels.copy(), sequence_id=seq_id))
            seq_id += 1
    return VideoDataset(schema=schema, sequences=sequences)


def generate_from_config(cfg):
    """`generate_synthetic` on the default schema with every setting taken
    from a `DataConfig`."""
    return generate_synthetic(
        cfg.num_identities, cfg.seqs_per_identity, cfg.frames_per_seq, default_schema(),
        noise=cfg.noise, occlusion_prob=cfg.occlusion_prob, seed=cfg.seed,
        color_pool=cfg.color_pool, combo_pool=cfg.combo_pool,
        brightness_jitter=cfg.brightness_jitter)


def _occlude(img, rng, area_lo=0.05, area_hi=0.25):
    C, H, W = img.shape
    area = rng.uniform(area_lo, area_hi) * H * W
    aspect = rng.uniform(0.3, 3.3)
    h = int(round(np.sqrt(area * aspect)))
    w = int(round(np.sqrt(area / aspect)))
    h, w = min(max(h, 1), H), min(max(w, 1), W)
    r = int(rng.integers(0, H - h + 1))
    c = int(rng.integers(0, W - w + 1))
    img[:, r:r + h, c:c + w] = rng.uniform(size=(C, 1, 1)).astype(np.float32)
    return img


# --- clip handling ------------------------------------------------------

def split_clips(seq, T):
    """Consecutive non-overlapping clips of length T, each a `VideoSequence`
    of T frames; remainder dropped.

    Sequences shorter than T yield one clip padded by repeating the last
    frame.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    F = len(seq.frames)
    if F < T:
        pad = np.repeat(seq.frames[-1:], T - F, axis=0)
        return [replace(seq, frames=np.concatenate([seq.frames, pad], axis=0))]
    return [replace(seq, frames=seq.frames[k * T:(k + 1) * T]) for k in range(F // T)]


def all_clips(dataset, T):
    out = []
    for seq in dataset.sequences:
        out.extend(split_clips(seq, T))
    return out


def pk_sample(clips, I, V, rng):
    """A batch of I distinct identities x V clips each (replacement if short)."""
    by_id = {}
    for c in clips:
        by_id.setdefault(c.identity, []).append(c)
    ids = sorted(by_id)
    if I > len(ids):
        raise ValueError(f"requested {I} identities but dataset has {len(ids)}")
    chosen = rng.choice(len(ids), size=I, replace=False)
    batch = []
    for k in chosen:
        pool = by_id[ids[k]]
        replace_flag = len(pool) < V
        picks = rng.choice(len(pool), size=V, replace=replace_flag)
        batch.extend(pool[j] for j in picks)
    return batch


def random_erase(clip, p, rng):
    """With probability p, fill one noise rectangle at the same location in
    every frame of the clip (area fraction in [0.02, 0.2], aspect in [0.3, 3.3])."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0,1]")
    if rng.uniform() >= p:
        return clip
    T, C, H, W = clip.frames.shape
    for _ in range(20):
        area = rng.uniform(0.02, 0.2) * H * W
        aspect = rng.uniform(0.3, 3.3)
        h = int(round(np.sqrt(area * aspect)))
        w = int(round(np.sqrt(area / aspect)))
        if 1 <= h <= H and 1 <= w <= W:
            break
    else:
        h, w = max(1, H // 4), max(1, W // 4)
    r = int(rng.integers(0, H - h + 1))
    c = int(rng.integers(0, W - w + 1))
    frames = clip.frames.copy()
    frames[:, :, r:r + h, c:c + w] = rng.uniform(size=(T, C, h, w)).astype(np.float32)
    return replace(clip, frames=frames)


def train_test_split(dataset, test_seqs_per_id=2):
    """Hold out the last `test_seqs_per_id` sequences of each identity."""
    train, test = [], []
    by_id = {}
    for seq in dataset.sequences:
        by_id.setdefault(seq.identity, []).append(seq)
    for ident in sorted(by_id):
        seqs = by_id[ident]
        if len(seqs) <= test_seqs_per_id:
            raise ValueError(f"identity {ident} has too few sequences to split")
        train.extend(seqs[:-test_seqs_per_id])
        test.extend(seqs[-test_seqs_per_id:])
    return (VideoDataset(dataset.schema, train), VideoDataset(dataset.schema, test))


# --- on-disk format -----------------------------------------------------

def write_annotations(path, schema, labels_by_identity):
    """Plain text table: header names attributes and category lists, then one
    row per identity with integer category indices."""
    with open(path, "w") as fh:
        cols = ["identity"] + [f"{name}:{'|'.join(cats)}" for name, cats in schema.attributes]
        fh.write("\t".join(cols) + "\n")
        for ident in sorted(labels_by_identity):
            labels = labels_by_identity[ident]
            fh.write("\t".join([str(ident)] + [str(int(v)) for v in labels]) + "\n")


def _int_field(path, lineno, what, text):
    """int(text), or a ValueError that names the file, the line and the field."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} {text.strip()!r} is not an integer") from None


def read_annotations(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        attrs = []
        for col in header[1:]:
            name, cats = col.split(":", 1)
            attrs.append((name, tuple(cats.split("|"))))
        schema = AttributeSchema(attributes=tuple(attrs))
        labels = {}
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 1 + schema.n_attributes:
                raise ValueError(f"{path}:{lineno}: expected {schema.n_attributes} labels, "
                                 f"got {len(parts) - 1}")
            ident = _int_field(path, lineno, "identity", parts[0])
            if ident in labels:
                raise ValueError(f"{path}:{lineno}: identity {ident} appears twice")
            vec = np.asarray([_int_field(path, lineno, f"label of {name}", v)
                              for name, v in zip(schema.names, parts[1:])], dtype=np.int64)
            for v, m in zip(vec, schema.category_counts):
                if not 0 <= v < m:
                    raise ValueError(f"{path}:{lineno}: attribute index {v} out of range")
            labels[ident] = vec
    return schema, labels


def save_dataset(directory, dataset):
    """Manifest + annotation table + one raw .npy frame stack per sequence."""
    os.makedirs(directory, exist_ok=True)
    labels = {s.identity: s.attribute_labels for s in dataset.sequences}
    write_annotations(os.path.join(directory, "annotations.tsv"), dataset.schema, labels)
    with open(os.path.join(directory, "manifest.tsv"), "w") as fh:
        fh.write("sequence_id\tidentity\tcamera\tframe_count\tpath\n")
        for seq in dataset.sequences:
            rel = f"seq_{seq.sequence_id:05d}.npy"
            np.save(os.path.join(directory, rel), seq.frames)
            fh.write(f"{seq.sequence_id}\t{seq.identity}\t{seq.camera}\t{len(seq.frames)}\t{rel}\n")


# the manifest's integer columns, in order; the fifth is the frame file
_MANIFEST_INTS = ("sequence_id", "identity", "camera", "frame_count")


def load_dataset(directory):
    annotations = os.path.join(directory, "annotations.tsv")
    schema, labels = read_annotations(annotations)
    sequences = []
    manifest = os.path.join(directory, "manifest.tsv")
    with open(manifest) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise ValueError(f"{manifest}:{lineno}: expected 5 fields")
            sid, ident, cam, count = (_int_field(manifest, lineno, what, text)
                                      for what, text in zip(_MANIFEST_INTS, fields))
            rel = fields[4]
            if ident not in labels:
                raise ValueError(f"{manifest}:{lineno}: identity {ident} is not in {annotations}")
            path = os.path.join(directory, rel)
            frames = np.load(path)
            if frames.ndim != 4 or not np.issubdtype(frames.dtype, np.floating):
                raise ValueError(f"{path}: expected a 4-D floating frame stack, "
                                 f"got {frames.ndim}-D {frames.dtype}")
            frames = frames.astype(np.float32, copy=False)
            if len(frames) != count:
                raise ValueError(f"{manifest}:{lineno}: frame_count {count}, but {path} "
                                 f"holds {len(frames)} frames")
            if not np.isfinite(frames).all():
                raise ValueError(f"{path}: non-finite frame values")
            sequences.append(VideoSequence(frames=frames, identity=ident, camera=cam,
                                           attribute_labels=labels[ident], sequence_id=sid))
    return VideoDataset(schema=schema, sequences=sequences)
