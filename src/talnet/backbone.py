"""Shared low-level feature extractor feeding both branches.

A small conv stack (3x3 conv + ReLU + 2x2 mean-pool per block) stands in for
a large pretrained base network.
"""

from __future__ import annotations

from . import autograd as ag
from .nn import Conv2d, Module


def mean_pool_2x2(x):
    """2x2 average pooling, stride 2, on (B, C, H, W); H and W must be even."""
    return ag.avg_pool(x, 2, 2)


class ConvBackbone(Module):
    """Per-frame conv blocks; no temporal mixing happens here.

    The last block skips the 2x2 pool so the default 3x32x16 input yields an
    8x4 map with enough extent for stripe splits and region crops.
    """

    def __init__(self, in_channels, channels):
        self.blocks = []
        prev = in_channels
        for ch in channels:
            self.blocks.append(Conv2d(prev, ch, 3, pad=1))
            prev = ch

    def __call__(self, frames):
        """frames: (B, C, H, W) in [0,1] -> feature maps (B, Cf, Hm, Wm)."""
        x = frames
        last = len(self.blocks) - 1
        for k, conv in enumerate(self.blocks):
            x = ag.relu(conv(x))
            if k < last:
                x = mean_pool_2x2(x)
        return x
