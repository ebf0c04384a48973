"""Batch-hard triplet loss (one autograd node), label-smoothed cross entropy,
and the combined appearance / attribute / total objectives."""

from __future__ import annotations

import numpy as np

from . import autograd as ag


def triplet_batch_hard(features, I, V, margin):
    """Hinge over (margin + hardest positive - hardest negative), summed over
    all I*V anchors, as one autograd node. Rows must be grouped by identity in
    V-sized blocks. Distance is squared Euclidean.

    The hardest pairs are row-wise masked max / min (Hermans et al. 2017);
    ties break at the lowest index. Each distance is one (1 x d)(d x 1)
    product of a row difference with itself, and the hinges are added one at
    a time in anchor order, the float order of a scalar loop over anchors.
    The backward sends +-2 * diff only through the chosen pairs. Tagged
    "max", the op it mines with.
    """
    if I < 2 or V < 2:
        raise ValueError("batch-hard triplet needs I >= 2 and V >= 2")
    B = I * V
    if features.shape[0] != B:
        raise ag.ShapeError("triplet_batch_hard", features.shape, (B,))
    x = features.data
    d = x.shape[1]
    diff = x[:, None, :] - x[None, :, :]
    dist = (diff.reshape(B, B, 1, d) @ diff.reshape(B, B, d, 1)).reshape(B, B)
    labels = np.repeat(np.arange(I), V)
    same = labels[:, None] == labels[None, :]
    rows = np.arange(B)
    pos = np.where(same, dist, -np.inf).argmax(axis=1)
    neg = np.where(same, np.inf, dist).argmin(axis=1)
    pre = (margin + dist[rows, pos]) - dist[rows, neg]
    total = np.cumsum(np.maximum(pre, 0.0))[-1]

    def bwd(g):
        w = g * (pre > 0)
        gd = np.zeros_like(dist)
        gd[rows, pos] = w
        gd[rows, neg] = -w
        # both sides of each pair, as the per-pair graph's matmul and sub
        # nodes accumulated them, so the gradient bytes are unchanged
        gdiff = (gd + gd)[:, :, None] * diff
        ag._accum(features, gdiff.sum(axis=1))
        ag._accum(features, -gdiff.sum(axis=0))

    return ag._make(np.asarray(total), (features,), bwd, "max")


def ce_label_smooth(logits, targets, epsilon):
    """Mean over the batch of -log((1 - eps) * q_target + eps / G)."""
    B, G = logits.shape
    targets = np.asarray(targets, dtype=np.intp)
    q = ag.softmax(logits, axis=1)
    q_target = q[np.arange(B), targets]
    eps = float(epsilon)
    smoothed = q_target * (1.0 - eps) + eps / G
    return -ag.tmean(ag.log(smoothed))


def appearance_loss(global_feat, part_feats, logits, targets, I, V, margin, epsilon,
                    tri_weight=1.0):
    """L_app = tri_weight * (triplet terms over global and parts) plus
    label-smoothed CE over the matching identity heads, `logits` being
    [global, part_1..H]. Returns (L_app, L_tri, L_ide) with the last two as
    unweighted floats; with tri_weight 0 the triplet terms are not built and
    L_tri is 0."""
    ide = ce_label_smooth(logits[0], targets, epsilon)
    for lg in logits[1:]:
        ide = ide + ce_label_smooth(lg, targets, epsilon)
    if tri_weight <= 0.0:
        return ide, 0.0, ide.item()
    tri = triplet_batch_hard(global_feat, I, V, margin)
    for p in part_feats:
        tri = tri + triplet_batch_hard(p, I, V, margin)
    l_tri = tri.item()
    if tri_weight != 1.0:
        tri = float(tri_weight) * tri
    return tri + ide, l_tri, ide.item()


def attribute_loss(attr_logits, attr_targets, epsilon):
    """Sum of label-smoothed CE over the N attribute heads.

    attr_targets: (B, N) integer labels, column n for head n.
    """
    total = None
    for n, logits in enumerate(attr_logits):
        term = ce_label_smooth(logits, attr_targets[:, n], epsilon)
        total = term if total is None else total + term
    return total


def total_loss(l_app, l_att, lambda_total):
    """L = L_app + lambda * L_att; either side may be None when ablated."""
    if l_att is None:
        return l_app
    scaled = l_att * lambda_total
    if l_app is None:
        return scaled
    return l_app + scaled
