"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd


@dataclass
class CoordError:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    passed: bool
    tol: float
    eps: float
    checked: int = 0
    worst: list = field(default_factory=list)

    @property
    def max_rel_err(self):
        """Worst relative error over the checked coordinates (0.0 if none)."""
        return self.worst[0].rel_err if self.worst else 0.0

    def summary(self):
        lines = [
            f"gradcheck: {'PASS' if self.passed else 'FAIL'} "
            f"({self.checked} coordinates, tol {self.tol:g}, eps {self.eps:g})"
        ]
        for c in self.worst[:10]:
            lines.append(
                f"  {c.param}{list(c.index)}: autodiff {c.analytic:.6e} "
                f"fd {c.numeric:.6e} rel_err {c.rel_err:.3e}"
            )
        return "\n".join(lines)


def grad_check(f, params, eps=1e-5, tol=1e-4, max_coords_per_param=200):
    """Compare autodiff gradients of scalar f() against central differences.

    `params` are Parameters, which must be float64 (the caller initializes
    the model with `dtype=np.float64`). Coordinates are subsampled at
    `max_coords_per_param` per parameter, drawn by one seed-0 generator.
    """
    rng = np.random.default_rng(0)
    for p in params:
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, got {p.dtype} for {p.name}")
        p.zero_grad()

    autograd.set_check_finite(True)
    try:
        loss = f()
        loss.backward()
    finally:
        autograd.set_check_finite(False)

    errors = []
    checked = 0
    for p in params:
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for k in coords:
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = f().item()
            flat[k] = orig - eps
            f_minus = f().item()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = grad[k]
            denom = max(abs(analytic), abs(numeric), 1.0)
            rel = abs(analytic - numeric) / denom
            errors.append(CoordError(p.name, np.unravel_index(k, p.shape), analytic, numeric, rel))
            checked += 1

    errors.sort(key=lambda c: -c.rel_err)
    worst_rel = errors[0].rel_err if errors else 0.0
    return GradCheckReport(passed=worst_rel <= tol, tol=tol, eps=eps, checked=checked, worst=errors[:20])
