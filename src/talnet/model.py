"""Whole-network assembly: backbone + attribute branch + appearance branch."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .appearance import AppearanceBranch
from .attention import SpatialAttentionBlock
from .backbone import ConvBackbone
from .nn import Module
from .ts_context import AttributeHeads, TemporalSemanticBlock


class TALNet(Module):
    """Clip-in, features-and-logits-out. Branches can be ablated via config."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.backbone = ConvBackbone(cfg.frame_channels, cfg.backbone_channels)
        cf, hm, wm = cfg.feature_map_shape()
        if hm < 1 or wm < 1:
            raise ValueError("backbone pools the input away; use a larger frame")
        if cfg.use_app and hm % cfg.n_stripes:
            raise ValueError(f"feature-map height {hm} not divisible by {cfg.n_stripes} stripes")
        if cfg.use_att:
            self.attention = SpatialAttentionBlock(
                cf, cfg.n_attributes, cfg.d_v,
                frame_hw=(cfg.frame_height, cfg.frame_width),
                use_attention=cfg.use_spatial_attention)
            if cfg.use_ts_context:
                self.ts_block = TemporalSemanticBlock(
                    cfg.d_v, cfg.d, cfg.attention_hidden, cfg.category_counts,
                    use_context_memory=cfg.use_context_memory)
            else:
                # temporal mean of the initial features, classified directly
                self.attr_heads_direct = AttributeHeads(cfg.d_v, cfg.category_counts)
        if cfg.use_app:
            self.appearance = AppearanceBranch(
                cf, cfg.d_g, cfg.d_p, cfg.n_stripes, cfg.num_classes,
                use_gru=cfg.use_gru, pooling=cfg.pooling)

    def forward_clips(self, frames, rng=None, att=True):
        """Full forward pass on a batch of clips.

        frames: (B, T, C, H, W) ndarray or Tensor. Returns a dict with
        whatever the enabled branches produce: f_app (B, d_g + H*d_p),
        app_logits (list of (B, G)), f_att (B, N*d), attr_logits (list of
        (B, m_n)), attention scores, and regions, per attribute the
        squashed (s_x, s_y, t_x, t_y) tensors of its B*T frames (empty
        without spatial attention). att=False skips the attribute branch
        (stage-1 training).
        """
        if not isinstance(frames, ag.Tensor):
            frames = ag.Tensor(np.ascontiguousarray(frames))
        cfg = self.cfg
        B, T, C, H, W = frames.shape
        flat = self.backbone(frames.reshape((B * T, C, H, W)))  # (B*T, Cf, Hm, Wm)
        fm = flat.reshape((B, T) + tuple(flat.shape[1:]))
        out = {}
        if cfg.use_app:
            g_clip, parts, logits = self.appearance(fm, rng=rng)
            out["app_global"] = g_clip
            out["app_parts"] = parts
            out["app_logits"] = logits
            out["f_app"] = self.appearance.feature(g_clip, parts)
        if cfg.use_att and att:
            v_flat, out["regions"] = self.attention(flat)
            d_v = v_flat.shape[-1]
            # (B*T, N, d_v) -> (B, N, T, d_v)
            v = ag.transpose(v_flat.reshape((B, T, cfg.n_attributes, d_v)), (0, 2, 1, 3))
            if cfg.use_ts_context:
                readout, attr_logits, scores = self.ts_block(v)
                out["attention_scores"] = scores
            else:
                readout = ag.tmean(v, axis=2)  # (B, N, d_v)
                attr_logits = self.attr_heads_direct(readout)
            out["attr_readout"] = readout
            out["attr_logits"] = attr_logits
            out["f_att"] = readout.reshape((B, -1))
        return out

    def descriptors(self, frames):
        """Inference-time clip descriptors (f_app, f_att) as numpy arrays;
        the forward records no graph."""
        with ag.no_grad():
            out = self.forward_clips(frames, rng=np.random.default_rng(0))
        f_app = out["f_app"].data if "f_app" in out else None
        f_att = out["f_att"].data if "f_att" in out else None
        return f_app, f_att
