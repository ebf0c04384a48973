"""Graph ops that only the tests' composed-graph oracles use.

The program's recurrences are fused nodes with their own backward, so it
has no tanh node and no zero-tensor constructor of its own; the oracles that
rebuild those recurrences from small ops take them from here.
"""

import numpy as np

from talnet import autograd as ag


def tanh(a):
    """Elementwise tanh node; its fresh gradient g (1 - tanh^2) is adopted."""
    out = np.tanh(a.data)

    def bwd(g):
        ag._accum_fresh(a, g * (1.0 - out * out))

    return ag._make(out, (a,), bwd, "tanh")


def zeros(shape, dtype):
    return ag.Tensor(np.zeros(shape, dtype=dtype))
