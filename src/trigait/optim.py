"""SGD with momentum and weight decay."""

from __future__ import annotations

import numpy as np

from .nn import Parameter


class SGD:
    """v <- momentum*v + (g + wd*w); w <- w - lr*v.

    v is each parameter's `momentum_buffer`, so it is saved and restored with
    the module tree. Gradients are left intact until zero_grad(); parameters
    with no gradient are left unchanged.
    """

    def __init__(self, params, lr: float, momentum: float = 0.9, weight_decay: float = 5e-4):
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            if self.momentum != 0.0:
                if p.momentum_buffer is None:
                    p.momentum_buffer = np.zeros_like(p.data)
                p.momentum_buffer *= self.momentum
                p.momentum_buffer += g
                g = p.momentum_buffer
            p.data -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
