"""Parameter init, module discovery, and checkpoint round-trips."""

import json
import zipfile

import numpy as np
import pytest

from talnet import autograd as ag
from talnet.config import ModelConfig, TrainConfig
from talnet.data import default_schema, generate_synthetic
from talnet.nn import (Conv2d, Linear, Module, Parameter, config_hash,
                       load_checkpoint, save_checkpoint)
from talnet.trainer import train


class _Net(Module):
    def __init__(self):
        self.fc1 = Linear(4, 3)
        self.stack = [Linear(3, 3), Linear(3, 2)]
        self.conv = Conv2d(1, 2, 3, pad=1)


def test_named_parameters_walks_lists_and_submodules():
    net = _Net()
    names = {n for n, _ in net.named_parameters()}
    assert "fc1.weight" in names
    assert "stack.0.bias" in names and "stack.1.weight" in names
    assert "conv.weight" in names
    assert len(names) == 8


def test_initialize_is_deterministic_and_order_free():
    a = _Net().initialize(7)
    b = _Net().initialize(7)
    for (na, pa), (nb, pb) in zip(sorted(a.named_parameters()),
                                  sorted(b.named_parameters())):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    c = _Net().initialize(8)
    diffs = [not np.array_equal(pa.data, pc.data)
             for (_, pa), (_, pc) in zip(sorted(a.named_parameters()),
                                         sorted(c.named_parameters()))
             if pa.init_spec != "zeros"]
    assert any(diffs)


def test_initialize_dtype():
    net = _Net().initialize(0, dtype=np.float64)
    assert all(p.data.dtype == np.float64 for p in net.parameters())
    net32 = _Net().initialize(0)
    assert all(p.data.dtype == np.float32 for p in net32.parameters())


def test_duplicate_parameter_names_rejected():
    class _Dup(Module):
        def __init__(self):
            self.w = Parameter((2,))

        def named_parameters(self, prefix=""):
            yield "w", self.w
            yield "w", self.w

    with pytest.raises(ValueError):
        _Dup().initialize(0)


def test_uniform_fan_in_bound():
    p = Parameter((10, 100))
    p.initialize(np.random.default_rng(0), np.float32)
    bound = np.sqrt(6.0 / 100)
    assert np.all(np.abs(p.data) <= bound)


def test_constant_and_zero_inits():
    z = Parameter((3,), init="zeros")
    z.initialize(np.random.default_rng(0), np.float32)
    np.testing.assert_array_equal(z.data, 0.0)
    bad = Parameter((3,), init="gaussian")
    with pytest.raises(ValueError):
        bad.initialize(np.random.default_rng(0), np.float32)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = _Net().initialize(3)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, net, seed=3, config_hash="abc123")
    fresh = _Net().initialize(99)
    header = load_checkpoint(path, fresh)
    assert header["seed"] == 3
    assert header["model_config_hash"] == "abc123"
    for (n1, p1), (n2, p2) in zip(sorted(net.named_parameters()),
                                  sorted(fresh.named_parameters())):
        assert n1 == n2
        assert p1.data.dtype == p2.data.dtype
        np.testing.assert_array_equal(p1.data, p2.data)


def test_checkpoint_loads_into_the_model_dtype(tmp_path):
    wide = _Net().initialize(3, dtype=np.float64)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, wide, seed=3, config_hash="abc123")
    narrow = _Net().initialize(99)
    load_checkpoint(path, narrow)
    for (n1, p1), (n2, p2) in zip(sorted(wide.named_parameters()),
                                  sorted(narrow.named_parameters())):
        assert n1 == n2 and p2.data.dtype == np.float32
        np.testing.assert_array_equal(p2.data, p1.data.astype(np.float32))


def test_float32_checkpoint_loads_exactly_into_a_float64_model(tmp_path):
    narrow = _Net().initialize(3)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, narrow, seed=3, config_hash="abc123")
    wide = _Net().initialize(99, dtype=np.float64)
    load_checkpoint(path, wide)
    for (n1, p1), (n2, p2) in zip(sorted(narrow.named_parameters()),
                                  sorted(wide.named_parameters())):
        assert n1 == n2 and p2.data.dtype == np.float64
        np.testing.assert_array_equal(p2.data, p1.data)


def test_clipped_training_keeps_parameters_and_checkpoint_float32(tmp_path):
    dataset = generate_synthetic(4, 4, 4, default_schema(), noise=0.02,
                                 occlusion_prob=0.0, seed=5, frame_shape=(3, 16, 8))
    model_cfg = ModelConfig(frame_height=16, frame_width=8, backbone_channels=(4, 8),
                            clip_len=4, d_v=8, d=8, attention_hidden=8, d_g=8, d_p=8)
    # a clip this small rescales every step's gradient
    train_cfg = TrainConfig(lr=0.01, stage1_epochs=1, stage2_epochs=1, batch_identities=2,
                            clips_per_identity=2, seed=0, max_grad_norm=1e-3)
    model, ckpt, _ = train(model_cfg, train_cfg, dataset, tmp_path)
    assert all(p.data.dtype == np.float32 for p in model.parameters())
    with zipfile.ZipFile(ckpt) as zf:
        header = json.loads(zf.read("header.json"))
    assert {meta["dtype"] for meta in header["params"].values()} == {"float32"}


def test_checkpoint_parameter_mismatch_rejected(tmp_path):
    net = _Net().initialize(0)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, net, seed=0, config_hash="x")
    other = Linear(4, 3)
    other.initialize(0)
    with pytest.raises(ValueError):
        load_checkpoint(path, other)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, Linear(2, 3).initialize(0), seed=0, config_hash="x")
    other = Linear(3, 2).initialize(1)  # same parameter names, other shapes
    before = other.weight.data
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path, other)
    assert other.weight.data is before


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, Linear(2, 2).initialize(0), seed=0, config_hash="x")
    real_writestr = zipfile.ZipFile.writestr

    def failing_writestr(self, name, data, *args, **kwargs):
        if name.startswith("params/"):
            raise OSError("disk full")
        return real_writestr(self, name, data, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "writestr", failing_writestr)
    with pytest.raises(OSError):
        save_checkpoint(path, Linear(2, 2).initialize(1), seed=1, config_hash="y")
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.zip"]
    assert load_checkpoint(path, Linear(2, 2).initialize(2))["seed"] == 0


def test_checkpoint_version_check(tmp_path):
    net = Linear(2, 2).initialize(0)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, net, seed=0, config_hash="x")
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        blobs = {n: zf.read(n) for n in zf.namelist() if n != "header.json"}
    header["format_version"] = 999
    bad = tmp_path / "bad.zip"
    with zipfile.ZipFile(bad, "w") as zf:
        zf.writestr("header.json", json.dumps(header))
        for n, b in blobs.items():
            zf.writestr(n, b)
    with pytest.raises(ValueError):
        load_checkpoint(bad, net)


def test_loaded_params_are_trainable(tmp_path):
    net = Linear(2, 2).initialize(0)
    path = tmp_path / "ckpt.zip"
    save_checkpoint(path, net, seed=0, config_hash="x")
    load_checkpoint(path, net)
    x = ag.tensor(np.ones((1, 2), np.float32))
    out = ag.tsum(net(x))
    out.backward()
    assert net.weight.grad is not None


def test_config_hash_stable_and_sensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    c = config_hash({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c
    assert len(a) == 16
