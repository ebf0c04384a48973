"""Dataclass configs and the plain key=value config-file format."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class ModelConfig:
    # input / backbone
    frame_channels: int = 3
    frame_height: int = 32
    frame_width: int = 16
    backbone_channels: tuple = (16, 32, 64)
    clip_len: int = 8  # T

    # attribute branch
    d_v: int = 64
    d: int = 64
    attention_hidden: int = 64
    use_spatial_attention: bool = True
    use_ts_context: bool = True
    use_context_memory: bool = True

    # appearance branch
    d_g: int = 64
    d_p: int = 64
    n_stripes: int = 4
    use_gru: bool = True
    pooling: str = "mean"  # mean | max | random-sample

    # branch switches
    use_app: bool = True
    use_att: bool = True

    # heads
    num_classes: int = 0  # G, set from the dataset
    category_counts: tuple = ()  # m_n per attribute

    def __post_init__(self):
        if not (self.use_app or self.use_att):
            raise ValueError("at least one of use_app/use_att must be enabled")
        if self.pooling not in ("mean", "max", "random-sample"):
            raise ValueError(f"unknown pooling {self.pooling!r}")

    @property
    def n_attributes(self):
        return len(self.category_counts)

    def feature_map_shape(self):
        """(Cf, Hm, Wm) after the backbone's conv+pool blocks."""
        h, w = self.frame_height, self.frame_width
        for _ in self.backbone_channels[:-1]:  # last block has no pool
            h, w = h // 2, w // 2
        return self.backbone_channels[-1], h, w


@dataclass
class TrainConfig:
    lr: float = 0.03
    max_grad_norm: float = 5.0  # global-norm gradient clipping; 0 disables
    weight_decay: float = 5e-4
    momentum: float = 0.9  # Nesterov
    stage1_epochs: int = 40
    stage2_epochs: int = 60
    warmup_epochs: int = 30  # minimum CE-only epochs before the triplet starts
    warmup_exit_frac: float = 0.62  # ...and CE must first drop to this fraction
    # of its initial value (hard cap: 3x warmup_epochs); hard mining on
    # unseparated features collapses them to a point
    triplet_ramp_epochs: int = 10  # linear ramp of the triplet weight 0 -> 1
    # after warmup; a step onset of the hard-mining loss can undo the CE
    # separation before the margin becomes satisfiable
    decay_factor: float = 0.1  # total lr decay spread smoothly over all epochs
    plateau_tol: float = 1e-3  # stage-1 early stop: rel. improvement over window
    plateau_window: int = 5
    batch_identities: int = 8  # I
    clips_per_identity: int = 4  # V
    margin: float = 0.3
    epsilon: float = 0.1
    lambda_total: float = 0.3
    lambda_sim: float = 0.3
    erase_prob: float = 0.3
    seed: int = 0


@dataclass
class DataConfig:
    num_identities: int = 20
    seqs_per_identity: int = 6
    frames_per_seq: int = 8
    noise: float = 0.05
    occlusion_prob: float = 0.3
    brightness_jitter: float = 0.15
    color_pool: int = 10
    combo_pool: int = 7
    test_seqs_per_id: int = 2
    seed: int = 0


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)


def _coerce(current, raw):
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(v) for v in raw.split(",") if v != "")
    return raw


def apply_overrides(cfg, items):
    """Apply dotted key=value overrides, e.g. model.d=32 or train.lr=0.01."""
    for key, raw in items:
        # `trainer.build_model` sets these two from the dataset
        if key in ("model.num_classes", "model.category_counts"):
            raise ValueError(f"{key} is set from the dataset and cannot be overridden")
        parts = key.split(".")
        obj = cfg
        for p in parts[:-1]:
            if not hasattr(obj, p):
                raise KeyError(f"unknown config section {p!r} in {key!r}")
            obj = getattr(obj, p)
        leaf = parts[-1]
        if not hasattr(obj, leaf):
            raise KeyError(f"unknown config key {key!r}")
        setattr(obj, leaf, _coerce(getattr(obj, leaf), raw))
    # re-run dataclass validation
    if isinstance(cfg, RunConfig):
        cfg.model.__post_init__()
    return cfg


def load_config(path):
    """Plain text config: one `section.key = value` per line, # comments."""
    cfg = RunConfig()
    items = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            items.append((key, raw))
    return apply_overrides(cfg, items)


def config_dict(cfg):
    return dataclasses.asdict(cfg)
