"""Parameter containers, layers, initialization, and checkpoint I/O."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zipfile

import numpy as np

from .autograd import Tensor, conv2d, matmul, transpose

CHECKPOINT_FORMAT_VERSION = 1


class Parameter(Tensor):
    """A named trainable leaf tensor with a recorded init recipe. Until
    `initialize` draws its data it holds a read-only zero view of its shape,
    which allocates nothing."""

    __slots__ = ("init_spec", "name")

    def __init__(self, shape, init="uniform-fan-in", name=""):
        super().__init__(np.broadcast_to(np.float32(0), shape), requires_grad=True)
        self.init_spec = init
        self.name = name

    def initialize(self, rng, dtype):
        if self.init_spec == "zeros":
            data = np.zeros(self.shape, dtype=dtype)
        elif self.init_spec == "uniform-fan-in":
            # He-scaled uniform: keeps activation variance roughly constant
            # through ReLU layers (bound = sqrt(6 / fan_in))
            fan_in = int(np.prod(self.shape[1:])) if len(self.shape) > 1 else self.shape[0]
            bound = np.sqrt(6.0 / max(fan_in, 1))
            data = rng.uniform(-bound, bound, size=self.shape).astype(dtype)
        else:
            raise ValueError(f"unknown init spec {self.init_spec!r}")
        self.data, self.grad = data, None


class Module:
    """Base class; submodules and Parameters are discovered via attributes."""

    def named_parameters(self, prefix=""):
        for key, val in vars(self).items():
            path = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(val, Parameter):
                yield path, val
            elif isinstance(val, Module):
                yield from val.named_parameters(path)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Parameter):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def initialize(self, seed, dtype=np.float32):
        """Deterministic init: every parameter gets its own seed-derived stream."""
        names = []
        for name, param in self.named_parameters():
            param.name = name
            names.append(name)
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in module tree")
        for name, param in sorted(self.named_parameters()):
            sub = np.random.default_rng([seed, _name_key(name)])
            param.initialize(sub, dtype)
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def _name_key(name):
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


class Linear(Module):
    def __init__(self, in_dim, out_dim):
        self.weight = Parameter((out_dim, in_dim))
        self.bias = Parameter((out_dim,), init="zeros")

    def __call__(self, x):
        # W is stored (out, in); matmul wants (in, out) on the right
        return matmul(x, transpose(self.weight, (1, 0))) + self.bias


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, k, pad=0):
        self.weight = Parameter((out_ch, in_ch, k, k))
        self.bias = Parameter((out_ch,), init="zeros")
        self.pad = pad

    def __call__(self, x):
        return conv2d(x, self.weight, self.bias, pad=self.pad)


# --- checkpoints --------------------------------------------------------

def save_checkpoint(path, module, seed, config_hash):
    """Zip container: JSON header + one raw little-endian array per parameter.

    The zip is written to `path + ".tmp"` and then renamed over `path`, so an
    interrupted save leaves the previous checkpoint intact.
    """
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "seed": seed,
        "model_config_hash": config_hash,
        "params": {},
    }
    blobs = {}
    for name, p in sorted(module.named_parameters()):
        arr = np.ascontiguousarray(p.data)
        header["params"][name] = {"shape": list(arr.shape), "dtype": str(arr.dtype)}
        blobs[name] = arr.astype("<" + arr.dtype.str[1:]).tobytes()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED) as zf:
            zf.writestr("header.json", json.dumps(header, indent=1, sort_keys=True))
            for name, blob in blobs.items():
                zf.writestr(f"params/{name}", blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path, module):
    """Load parameters in place; returns the header dict. A truncated or
    corrupt zip or header raises ValueError, as any malformed checkpoint does."""
    try:
        with zipfile.ZipFile(path) as zf:
            header = json.loads(zf.read("header.json"))
            if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['format_version']}")
            params = dict(module.named_parameters())
            missing = set(header["params"]) ^ set(params)
            if missing:
                raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
            for name, meta in header["params"].items():
                if tuple(meta["shape"]) != params[name].shape:
                    raise ValueError(f"checkpoint shape {tuple(meta['shape'])} of {name} does not "
                                     f"match the model's {params[name].shape}")
            for name, meta in header["params"].items():
                raw = zf.read(f"params/{name}")
                arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]).newbyteorder("<"))
                arr = arr.reshape(meta["shape"]).astype(params[name].dtype)
                params[name].data, params[name].grad = arr, None
    except (zipfile.BadZipFile, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable checkpoint {os.fspath(path)}: {exc}") from None
    return header


def config_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]
