"""The checker itself must catch wrong gradients, not just bless right ones."""

import numpy as np
import pytest

from talnet import autograd as ag
from talnet.checks import ALL_CHECKS
from talnet.gradcheck import grad_check
from talnet.nn import Linear, Parameter


def _param(values):
    p = Parameter(np.shape(values), name="w")
    p.data = np.asarray(values, dtype=np.float64)
    return p


def test_correct_gradient_passes():
    p = _param([[2.0, -1.0, 0.5]])

    def f():
        return ag.tsum(ag.square(p))

    report = grad_check(f, [p])
    assert report.passed
    assert report.checked == 3
    assert "PASS" in report.summary()


def test_wrong_gradient_detected():
    p = _param([[2.0, -1.0, 0.5]])
    calls = {"n": 0}

    def f():
        calls["n"] += 1
        out = ag.tsum(ag.square(p))
        if calls["n"] > 1:
            # finite-difference passes see a slightly different function, so
            # the analytic gradient from call 1 must be flagged as wrong
            out = out * 1.01
        return out

    report = grad_check(f, [p])
    assert not report.passed
    assert "FAIL" in report.summary()
    assert report.worst[0].rel_err > 1e-4


def test_float32_params_rejected():
    lin = Linear(2, 2).initialize(0)  # float32

    def f():
        return ag.tsum(lin(ag.tensor(np.ones((1, 2), np.float32))))

    with pytest.raises(ValueError):
        grad_check(f, lin.parameters())


def test_unused_parameter_zero_gradient_passes():
    used = _param([[1.0]])
    unused = _param([[5.0]])
    unused.name = "unused"

    def f():
        return ag.tsum(ag.square(used))

    report = grad_check(f, [used, unused])
    assert report.passed


def test_subsampling_limits_coordinates():
    p = _param(np.random.default_rng(0).normal(size=(1, 50)))

    def f():
        return ag.tsum(ag.square(p))

    report = grad_check(f, [p], max_coords_per_param=10)
    assert report.checked == 10
    assert report.passed


def test_checks_registry_names():
    expected = {"spatial_attention", "ts_gru_lattice", "second_pass",
                "appearance_branch", "triplet_loss", "ce_label_smooth"}
    assert expected <= set(ALL_CHECKS)
