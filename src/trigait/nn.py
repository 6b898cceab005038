"""Parameter/module containers and the layers shared by all three branches."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, conv, gem, linear, normalize, softplus


class Parameter(Tensor):
    """Trainable tensor carrying its SGD momentum buffer; its name is its
    path in the module tree (`Module.named_parameters`)."""

    __slots__ = ("momentum_buffer",)

    def __init__(self, data):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        self.momentum_buffer: np.ndarray | None = None


class Module:
    """Minimal parameter container with train/eval mode and state_dict IO."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (running stats) for checkpointing."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # -- traversal ---------------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        for k, p in self._params.items():
            yield (prefix + k, p)
        for k, m in self._modules.items():
            yield from m.named_parameters(prefix + k + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = ""):
        for k, b in self._buffers.items():
            yield (prefix + k, b)
        for k, m in self._modules.items():
            yield from m.named_buffers(prefix + k + ".")

    def train(self, flag: bool = True):
        object.__setattr__(self, "training", flag)
        for m in self._modules.values():
            m.train(flag)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- state -----------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update({name: b for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        missing = (set(own) | set(bufs)) - set(state)
        extra = set(state) - (set(own) | set(bufs))
        if missing or extra:
            raise ValueError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data[...] = state[name]
        for name, b in bufs.items():
            b[...] = state[name]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._list = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        key = str(len(self._list))
        self._list.append(module)
        self._modules[key] = module
        object.__setattr__(self, key, module)
        return self

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class Linear(Module):
    def __init__(self, din: int, dout: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        bound = math.sqrt(1.0 / din)
        self.weight = Parameter(rng.uniform(-bound, bound, (din, dout)))
        self.bias = Parameter(rng.uniform(-bound, bound, dout)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Conv(Module):
    """N-d unit-stride convolution layer; kernel rank decides 1/2/3-D behaviour."""

    def __init__(
        self,
        cin: int,
        cout: int,
        kernel,
        rng: np.random.Generator,
        dilation=1,
        padding=0,
        bias: bool = True,
    ):
        super().__init__()
        kernel = (kernel,) if isinstance(kernel, int) else tuple(kernel)
        fan_in = cin * int(np.prod(kernel))
        bound = math.sqrt(1.0 / fan_in)
        self.weight = Parameter(rng.uniform(-bound, bound, (cout, cin) + kernel))
        self.bias = Parameter(rng.uniform(-bound, bound, cout)) if bias else None
        self.dilation = dilation
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv(x, self.weight, self.bias, self.dilation, self.padding)


class BatchNorm(Module):
    """Batch normalization over (N, C, ...) with running statistics.

    Train mode normalizes with batch statistics and folds them into the
    running buffers (momentum 0.1); eval mode normalizes with the buffers.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.eps = eps
        self.momentum = momentum
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.gamma.size:
            raise ValueError(
                f"batch_norm: channel extent {x.shape} vs gamma {self.gamma.shape}"
            )
        axes = (0,) + tuple(range(2, x.ndim))
        if self.training:
            count = int(np.prod([x.shape[a] for a in axes]))
            if count == 0:
                raise ValueError("batch_norm: zero-size batch in train mode")
            out, mu, var = normalize(x, self.gamma, self.beta, axes, 1, self.eps)
            m = self.momentum
            self.running_mean[...] = (1 - m) * self.running_mean + m * mu.reshape(-1)
            self.running_var[...] = (1 - m) * self.running_var + m * var.reshape(-1)
            return out
        cshape = (1, -1) + (1,) * (x.ndim - 2)
        mu = Tensor(self.running_mean.reshape(cshape))
        std = np.sqrt(self.running_var + self.eps).reshape(cshape)
        xhat = (x - mu) * Tensor(1.0 / std)
        return xhat * self.gamma.reshape(cshape) + self.beta.reshape(cshape)


class LayerNorm(Module):
    """Normalization over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return normalize(x, self.gamma, self.beta, (-1,), -1, self.eps)[0]


class GeMPool(Module):
    """Generalized-mean pooling over one axis with a learnable exponent.

    The exponent is kept strictly positive via softplus(raw) + 1e-3.
    """

    def __init__(self, axis: int, p_init: float = 1.0):
        super().__init__()
        # invert softplus so that p starts exactly at p_init
        raw = math.log(math.expm1(max(p_init - 1e-3, 1e-6)))
        self.p_raw = Parameter(np.array(raw))
        self.axis = axis

    def p(self) -> Tensor:
        return softplus(self.p_raw) + 1e-3

    def forward(self, x: Tensor) -> Tensor:
        return gem(x, self.p(), axis=self.axis)
