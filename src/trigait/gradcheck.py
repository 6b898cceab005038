"""Finite-difference gradient verification for the tensor core.

Compares reverse-mode gradients against central differences on a sampled set
of coordinates. Non-scalar outputs are reduced through a fixed random
projection so a single backward pass checks the whole Jacobian action.
"""

from __future__ import annotations

import numpy as np

from .nn import Module
from .tensor import Tensor, no_grad


def gradcheck(
    fn,
    inputs: list[np.ndarray],
    n_samples: int = 24,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Return the max relative error between autodiff and finite differences.

    fn maps len(inputs) Tensors to one Tensor (any shape). Each input array is
    treated as differentiable; up to `n_samples` coordinates per input are
    probed with central differences of size `step`.
    """
    return model_param_gradcheck(
        Module(), fn, inputs, n_params=0, n_coords=n_samples, step=step, seed=seed
    )


def model_param_gradcheck(
    module,
    fn,
    inputs: list[np.ndarray],
    n_params: int = 6,
    n_coords: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Gradcheck a Module end to end: parameters and inputs vs central
    differences.

    fn maps len(inputs) Tensors to one output Tensor and closes over
    `module`'s parameters. Up to `n_params` randomly chosen parameters plus
    every input tensor are probed at `n_coords` coordinates each. Returns the
    max relative error seen.
    """
    rng = np.random.default_rng(seed)
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in inputs]
    module.zero_grad()
    out = fn(*tensors)
    proj = rng.standard_normal(out.shape)
    ((out * Tensor(proj)).sum()).backward()

    def value() -> float:
        with no_grad():
            v = fn(*[Tensor(t.data) for t in tensors])
        return float((v.data * proj).sum())

    worst = 0.0

    def probe(arr: np.ndarray, grad: np.ndarray | None):
        nonlocal worst
        g = grad if grad is not None else np.zeros_like(arr)
        k = min(n_coords, arr.size)
        for c in rng.choice(arr.size, size=k, replace=False):
            idx = np.unravel_index(c, arr.shape)
            old = arr[idx]
            arr[idx] = old + step
            hi = value()
            arr[idx] = old - step
            lo = value()
            arr[idx] = old
            numeric = (hi - lo) / (2 * step)
            analytic = g[idx]
            scale = max(abs(numeric), abs(analytic), 0.1)
            worst = max(worst, abs(numeric - analytic) / scale)

    params = list(module.named_parameters())
    chosen = rng.choice(len(params), size=min(n_params, len(params)), replace=False)
    for pi in chosen:
        _, p = params[pi]
        probe(p.data, p.grad)
    for t in tensors:
        probe(t.data, t.grad)
    return worst
