import numpy as np
import pytest

from talnet import autograd as ag
from talnet.backbone import ConvBackbone, mean_pool_2x2
from talnet.gradcheck import grad_check


def _backbone(dtype=np.float32, seed=0):
    return ConvBackbone(3, (16, 32, 64)).initialize(seed, dtype=dtype)


def test_default_output_shape():
    bb = _backbone()
    out = bb(ag.tensor(np.zeros((8, 3, 32, 16), np.float32)))
    assert out.shape == (8, 64, 8, 4)


def test_zero_input_zero_final_conv_gives_zero_map():
    bb = _backbone()
    bb.blocks[-1].weight.data[:] = 0.0
    bb.blocks[-1].bias.data[:] = 0.0
    out = bb(ag.tensor(np.zeros((2, 3, 32, 16), np.float32)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_frame_independence_permutation():
    bb = _backbone()
    frames = np.random.default_rng(0).uniform(size=(6, 3, 32, 16)).astype(np.float32)
    perm = np.array([3, 0, 5, 1, 4, 2])
    out = bb(ag.tensor(frames)).data
    out_perm = bb(ag.tensor(frames[perm])).data
    np.testing.assert_allclose(out_perm, out[perm], rtol=1e-6)


def test_identical_frames_identical_maps():
    bb = _backbone()
    frame = np.random.default_rng(1).uniform(size=(3, 32, 16)).astype(np.float32)
    out = bb(ag.tensor(np.stack([frame, frame]))).data
    np.testing.assert_array_equal(out[0], out[1])


def test_mean_pool_requires_even_extent():
    with pytest.raises(ag.ShapeError):
        mean_pool_2x2(ag.tensor(np.zeros((1, 1, 3, 4), np.float32)))


def test_backbone_gradcheck():
    bb = ConvBackbone(2, (4, 6)).initialize(5, dtype=np.float64)
    x = ag.tensor(np.random.default_rng(2).uniform(size=(2, 2, 8, 8)), dtype=np.float64)

    def f():
        return ag.tmean(ag.square(bb(x)))

    report = grad_check(f, bb.parameters(), max_coords_per_param=50)
    assert report.passed, report.summary()
