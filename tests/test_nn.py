"""Parameter init, module discovery, and checkpoint round-trips."""

import numpy as np
import pytest

from talnet import autograd as ag
from talnet.nn import (Conv2d, Linear, Module, Parameter, config_hash,
                       load_checkpoint, save_checkpoint)


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
    c = Parameter((3,), init="constant(2.5)")
    c.initialize(np.random.default_rng(0), np.float32)
    np.testing.assert_array_equal(c.data, 2.5)
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
    import zipfile

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
    import json
    import zipfile

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
