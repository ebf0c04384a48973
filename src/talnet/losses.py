"""Batch-hard triplet loss, label-smoothed cross entropy, and the combined
appearance / attribute / total objectives."""

from __future__ import annotations

import numpy as np

from . import autograd as ag


def pairwise_sqdist(features):
    """Squared Euclidean distances between all rows of (B, d) -> (B, B).

    Each entry is one (1 x d)(d x 1) product of the row difference with
    itself, the same dot product as `diff @ diff` on the two rows.
    """
    B, d = features.shape
    diff = features.reshape((B, 1, d)) - features.reshape((1, B, d))
    sq = ag.matmul(diff.reshape((B, B, 1, d)), diff.reshape((B, B, d, 1)))
    return sq.reshape((B, B))


def triplet_batch_hard(features, I, V, margin, squared=True):
    """Hinge over (margin + hardest positive - hardest negative), summed over
    all I*V anchors. Rows must be grouped by identity in V-sized blocks.
    Distance is squared Euclidean by default; ties break at the lowest index
    (argmax/argmin first occurrence)."""
    if I < 2 or V < 2:
        raise ValueError("batch-hard triplet needs I >= 2 and V >= 2")
    B = I * V
    if features.shape[0] != B:
        raise ag.ShapeError("triplet_batch_hard", features.shape, (B,))
    dist = pairwise_sqdist(features)
    if not squared:
        dist = _sqrt(dist)
    total = None
    m = ag.constant(margin, like=features)
    for i in range(I):
        lo, hi = i * V, (i + 1) * V
        for j in range(lo, hi):
            row = dist[j]
            hardest_pos = ag.tmax(row[lo:hi], axis=0)
            if lo == 0:
                negs = row[hi:]
            elif hi == B:
                negs = row[:lo]
            else:
                negs = ag.concat([row[:lo], row[hi:]], axis=0)
            hardest_neg = -ag.tmax(-negs, axis=0)
            term = ag.relu(m + hardest_pos - hardest_neg)
            # one addition at a time in anchor order: the float order of a
            # scalar loop over anchors, which criterion 4 compares bitwise
            total = term if total is None else total + term
    return total


def _sqrt(x):
    # sqrt via exp(0.5 log(x + tiny)); only used by the non-squared flag
    eps = ag.constant(1e-12, like=x)
    return ag.exp(ag.log(x + eps) * ag.constant(0.5, like=x))


def ce_label_smooth(logits, targets, epsilon, num_classes=None):
    """Mean over the batch of -log((1 - eps) * q_target + eps / G)."""
    B, G = logits.shape
    if num_classes is not None and num_classes != G:
        raise ag.ShapeError("ce_label_smooth", logits.shape, (num_classes,))
    targets = np.asarray(targets, dtype=np.intp)
    q = ag.softmax(logits, axis=1)
    q_target = q[np.arange(B), targets]
    eps = float(epsilon)
    smoothed = q_target * ag.constant(1.0 - eps, like=logits) \
        + ag.constant(eps / G, like=logits)
    return -ag.tmean(ag.log(smoothed))


def appearance_loss(global_feat, part_feats, logits, targets, I, V, margin, epsilon):
    """L_app = sum of triplet terms over (global, parts) plus label-smoothed
    CE over the matching identity heads. `logits` is [global, part_1..H]."""
    tri = triplet_batch_hard(global_feat, I, V, margin)
    for p in part_feats:
        tri = tri + triplet_batch_hard(p, I, V, margin)
    ide = ce_label_smooth(logits[0], targets, epsilon)
    for lg in logits[1:]:
        ide = ide + ce_label_smooth(lg, targets, epsilon)
    return tri + ide


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
    scaled = l_att * ag.constant(lambda_total, like=l_att)
    if l_app is None:
        return scaled
    return l_app + scaled
