"""Spatial attention: per-attribute affine region heads and differentiable
region pooling with separable bilinear (tent) weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .nn import Conv2d, Linear, Module

def _logit(p):
    return float(np.log(p / (1.0 - p)))


def strip_prior(index, count):
    """Pre-squash offset placing head `index` of `count` at its vertical strip.

    Person attributes follow a head-to-foot layout, so each head starts at an
    equal-height horizontal band (ordered top to bottom, spanning the full
    width). The prior is only a starting point: the head's raw output is added
    on top, so regions remain free to move and rescale during training. A
    full-frame start instead leaves every head looking at the same global
    mean, and the gradient through the region coordinates is too weak to break
    that symmetry.
    """
    if count <= 1:
        return np.array([3.0, 3.0, 0.0, 0.0])
    s = 1.0 / count
    frac = float(np.clip(index / (count - 1.0), 0.02, 0.98))
    return np.array([_logit(s), 3.0, _logit(frac), 0.0])


@dataclass
class AffineParams:
    s_x: float
    s_y: float
    t_x: float
    t_y: float


@dataclass
class AttentionRegion:
    vertices: list  # four (x_s, y_s) points, images of the frame corners
    normalized_bounds: tuple  # (top, left, bottom, right) in [0,1]


def region_vertices(p, H, W):
    """Affine images of the four frame corners (x down the height axis)."""
    corners = [(0, 0), (H, 0), (0, W), (H, W)]
    verts = [(p.s_x * x + p.t_x, p.s_y * y + p.t_y) for x, y in corners]
    top, left = p.t_x / H, p.t_y / W
    bottom = (p.s_x * H + p.t_x) / H
    right = (p.s_y * W + p.t_y) / W
    return AttentionRegion(vertices=verts, normalized_bounds=(top, left, bottom, right))


class AttributeRegionHead(Module):
    """conv 5x5x32 -> conv 5x5x16 -> mean-pool to 4x2 -> FC 32 -> FC 4.

    Every head's conv1 reads the same primitive map, so the block runs them
    all as one convolution (`SpatialAttentionBlock.raw_affines`); a head is
    called on its own relu(conv1) channels.
    """

    POOL_GRID = (4, 2)

    def __init__(self, in_channels=64, fc_hidden=32):
        self.conv1 = Conv2d(in_channels, 32, 5, pad=2)
        self.conv2 = Conv2d(32, 16, 5, pad=2)
        gh, gw = self.POOL_GRID
        self.fc1 = Linear(16 * gh * gw, fc_hidden)
        self.fc2 = Linear(fc_hidden, 4)
        # zero the final layer so the region starts exactly at its prior
        # offset instead of a random perturbation of it
        self.fc2.weight.init_spec = "zeros"

    def __call__(self, hidden):
        x = ag.relu(self.conv2(hidden))
        x = adaptive_mean_pool(x, self.POOL_GRID)
        B = x.shape[0]
        x = x.reshape((B, -1))
        x = ag.relu(self.fc1(x))
        return self.fc2(x)  # raw (B, 4), squashing happens in the block


def adaptive_mean_pool(x, grid):
    """Average (B,C,H,W) down to a fixed (gh, gw) grid; H,W must divide."""
    _, _, H, W = x.shape
    gh, gw = grid
    if H % gh or W % gw:
        raise ag.ShapeError("adaptive_mean_pool", x.shape, (gh, gw))
    return ag.avg_pool(x, H // gh, W // gw)


class SpatialAttentionBlock(Module):
    """1x1x64 primitive conv plus one affine-region head per attribute.

    Regions are predicted in frame coordinates (H, W) per Eq. of the affine
    corner map, then converted to normalized bounds and pooled on the
    primitive feature map, which reconciles frame-space vertices with
    feature-space cropping. Built with use_attention=False (the
    spatial-attention ablation) it has no region heads, and every attribute
    sees the full-frame global mean.
    """

    def __init__(self, in_channels, n_attributes, d_v, frame_hw, use_attention=True):
        self.primitive = Conv2d(in_channels, 64, 1)
        self.project = Linear(64, d_v)
        self.frame_hw = frame_hw
        self.n_attributes = n_attributes
        self.use_attention = use_attention
        if use_attention:
            self.heads = [AttributeRegionHead(64) for _ in range(n_attributes)]
            self.offsets = [strip_prior(n, n_attributes) for n in range(n_attributes)]

    def primitive_map(self, fm):
        return ag.relu(self.primitive(fm))

    def raw_affines(self, t_p):
        """Raw (pre-squash) affine params of every head, a list of (B, 4).

        The heads' conv1 weights are concatenated into one 64 -> 32*N conv;
        each head continues on its own block of output channels.
        """
        conv1s = [head.conv1 for head in self.heads]
        weight = ag.concat([c.weight for c in conv1s], axis=0)
        bias = ag.concat([c.bias for c in conv1s], axis=0)
        hidden = ag.relu(ag.conv2d(t_p, weight, bias, pad=conv1s[0].pad))
        width = conv1s[0].weight.shape[0]
        return [head(hidden[:, n * width:(n + 1) * width])
                + ag.Tensor(offset.astype(t_p.dtype))
                for n, (head, offset) in enumerate(zip(self.heads, self.offsets))]

    def affine_tensors(self, raw):
        """Squashed (s_x, s_y, t_x, t_y) tensors, each (B,).

        s = sigma(raw_s); t_x = sigma(raw_t) * H * (1 - s_x) (and analogously
        for t_y with W), which pins the region inside [0,H] x [0,W] for any
        raw value.
        """
        H, W = self.frame_hw
        s_x = ag.sigmoid(raw[:, 0])
        s_y = ag.sigmoid(raw[:, 1])
        t_x = ag.sigmoid(raw[:, 2]) * float(H) * (1.0 - s_x)
        t_y = ag.sigmoid(raw[:, 3]) * float(W) * (1.0 - s_y)
        return s_x, s_y, t_x, t_y

    def region_feature(self, t_p, s_x, s_y, t_x, t_y):
        """Mean of the region's Hm x Wm bilinear samples, projected to d_v.

        The sample grid has the primitive map's own resolution, so a
        full-frame region reproduces exact cell values (and hence the global
        mean pool). Region extent is floored at one feature-map cell, and
        samples are clamped to the border. The bilinear kernel is separable
        (Jaderberg et al. 2015, eq. 5), so the grid mean is
        sum_hw wr[h] t_p[:, :, h, w] wc[w] / (Hm*Wm), where wr and wc sum
        the row and column tents of all samples.
        """
        H, W = self.frame_hw
        B, C, Hm, Wm = t_p.shape
        top = t_x * ((Hm - 1) / H)
        left = t_y * ((Wm - 1) / W)
        ext_r = ag.relu(s_x * float(Hm - 1) - 1.0) + 1.0
        ext_c = ag.relu(s_y * float(Wm - 1) - 1.0) + 1.0
        wr = tent_weights(top, ext_r, Hm)
        wc = tent_weights(left, ext_c, Wm)
        x = ag.matmul(t_p.reshape((B, C * Hm, Wm)), wc.reshape((B, Wm, 1)))
        x = ag.matmul(x.reshape((B, C, Hm)), wr.reshape((B, Hm, 1)))
        return self.project(x.reshape((B, C)) / float(Hm * Wm))

    def __call__(self, fm):
        """fm: (B, Cf, Hm, Wm) per-frame maps -> ((B, N, d_v) initial
        features, regions): per attribute the squashed (s_x, s_y, t_x, t_y)
        tensors its feature was pooled from; no regions without attention."""
        t_p = self.primitive_map(fm)
        if not self.use_attention:
            feats = [self.project(ag.tmean(ag.tmean(t_p, axis=3), axis=2))
                     for _ in range(self.n_attributes)]
            return ag.stack(feats, axis=1), []
        regions = [self.affine_tensors(raw) for raw in self.raw_affines(t_p)]
        feats = [self.region_feature(t_p, *region) for region in regions]
        return ag.stack(feats, axis=1), regions  # (B, N, d_v)


def tent_weights(start, extent, n):
    """Summed bilinear weights of n samples spread evenly over a segment.

    Sample i sits at start + extent * i / (n - 1), clamped to [0, n - 1];
    knot k receives sum_i relu(1 - |sample_i - k|). start, extent: (B,).
    Returns (B, n) in `start`'s dtype.
    """
    B = start.shape[0]
    frac = np.linspace(0.0, 1.0, n).astype(start.dtype)
    knots = np.arange(n, dtype=start.dtype)
    pos = start.reshape((B, 1)) + extent.reshape((B, 1)) * ag.Tensor(frac[None, :])
    pos = ag.relu(pos) - ag.relu(pos - float(n - 1))
    d = pos.reshape((B, n, 1)) - ag.Tensor(knots[None, None, :])
    tent = ag.relu(1.0 - (ag.relu(d) + ag.relu(-d)))
    return ag.tsum(tent, axis=1)
