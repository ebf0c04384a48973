"""Whole-model gradient verification suite (also behind the CLI `gradcheck`).

Every check builds a small float64 instance of one subsystem, evaluates a
scalar loss, and compares reverse-mode gradients with central finite
differences.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import losses
from .appearance import AppearanceBranch
from .attention import SpatialAttentionBlock
from .backbone import ConvBackbone
from .gradcheck import grad_check
from .nn import Module, Parameter
from .ts_context import AttentionScorer, TSGRUCell, build_context, first_pass, second_pass


def _rand(rng, shape):
    return ag.tensor(rng.normal(scale=0.5, size=shape), dtype=np.float64)


def check_backbone(tol=1e-4, eps=1e-5, max_coords=40):
    """Two conv blocks: conv2d, relu and the 2x2 window-mean pool between them."""
    rng = np.random.default_rng(9)
    backbone = ConvBackbone(3, (4, 5)).initialize(9, dtype=np.float64)
    frames = _rand(rng, (2, 3, 8, 6))

    def f():
        return ag.tmean(ag.square(backbone(frames)))

    return grad_check(f, backbone.parameters(), eps=eps, tol=tol,
                      max_coords_per_param=max_coords)


def check_spatial_attention(tol=1e-4, eps=1e-5, max_coords=60):
    """End to end through the region heads and the tent-weighted region pooling."""
    rng = np.random.default_rng(10)
    block = SpatialAttentionBlock(in_channels=6, n_attributes=2, d_v=5, frame_hw=(32, 16))
    block.initialize(10, dtype=np.float64)
    # the region heads' final layers start at zero (strip-prior init); give
    # them random values so the check exercises the full path
    for head in block.heads:
        head.fc2.weight.data[:] = rng.normal(
            scale=0.3, size=head.fc2.weight.shape)
    fm = _rand(rng, (3, 6, 8, 4))

    def f():
        v, _ = block(fm)
        return ag.tmean(ag.square(v))

    return grad_check(f, block.parameters(), eps=eps, tol=tol,
                      max_coords_per_param=max_coords)


def check_ts_gru_lattice(tol=1e-4, eps=1e-5, max_coords=60, N=3, T=4, d=8):
    rng = np.random.default_rng(11)
    cell = TSGRUCell(input_dim=6, hidden_dim=d).initialize(11, dtype=np.float64)
    v = _rand(rng, (2, N, T, 6))

    def f():
        return ag.tmean(ag.square(first_pass(cell, v)))

    return grad_check(f, cell.parameters(), eps=eps, tol=tol,
                      max_coords_per_param=max_coords)


class _SecondPassProbe(Module):
    def __init__(self, d, din):
        self.cell1 = TSGRUCell(din, d)
        self.cell2 = TSGRUCell(d, d)
        self.scorer = AttentionScorer(d, d)


def check_second_pass(tol=1e-4, eps=1e-5, max_coords=40, N=3, T=4, d=8):
    """Second TS-GRU with attention weights flowing from the context memory."""
    rng = np.random.default_rng(12)
    probe = _SecondPassProbe(d, 6).initialize(12, dtype=np.float64)
    v = _rand(rng, (2, N, T, 6))

    def f():
        h1 = first_pass(probe.cell1, v)
        f_s, f_t = build_context(h1)
        a_s, a_t, _, _ = probe.scorer(h1, f_s, f_t)
        h2 = second_pass(probe.cell2, h1, a_s, a_t)
        return ag.tmean(ag.square(h2))

    return grad_check(f, probe.parameters(), eps=eps, tol=tol,
                      max_coords_per_param=max_coords)


def check_appearance(tol=1e-4, eps=1e-5, max_coords=40):
    rng = np.random.default_rng(13)
    branch = AppearanceBranch(in_channels=6, d_g=7, d_p=5, n_stripes=4,
                              num_classes=3).initialize(13, dtype=np.float64)
    fm = _rand(rng, (2, 3, 6, 8, 4))

    def f():
        g, parts, logits = branch(fm)
        total = ag.tmean(ag.square(branch.feature(g, parts)))
        for lg in logits:
            total = total + ag.tmean(ag.square(lg))
        return total

    return grad_check(f, branch.parameters(), eps=eps, tol=tol,
                      max_coords_per_param=max_coords)


class _FeatModule(Module):
    def __init__(self, B, d):
        self.feats = Parameter((B, d))


def check_triplet_loss(tol=1e-4, eps=1e-5):
    probe = _FeatModule(6, 4).initialize(14, dtype=np.float64)

    def f():
        return losses.triplet_batch_hard(probe.feats, I=3, V=2, margin=0.3)

    return grad_check(f, probe.parameters(), eps=eps, tol=tol)


class _LogitModule(Module):
    def __init__(self, B, G):
        self.logits = Parameter((B, G))


def check_ce_loss(tol=1e-4, eps=1e-5):
    probe = _LogitModule(5, 3).initialize(15, dtype=np.float64)
    targets = np.array([0, 2, 1, 0, 2])

    def f():
        return losses.ce_label_smooth(probe.logits, targets, epsilon=0.1)

    return grad_check(f, probe.parameters(), eps=eps, tol=tol)


ALL_CHECKS = {
    "backbone": check_backbone,
    "spatial_attention": check_spatial_attention,
    "ts_gru_lattice": check_ts_gru_lattice,
    "second_pass": check_second_pass,
    "appearance_branch": check_appearance,
    "triplet_loss": check_triplet_loss,
    "ce_label_smooth": check_ce_loss,
}


def run_all(tol=1e-4, eps=1e-5):
    """Run every subsystem check; returns {name: GradCheckReport}."""
    return {name: fn(tol=tol, eps=eps) for name, fn in ALL_CHECKS.items()}
