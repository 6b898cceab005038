"""Dense float64 tensors with reverse-mode automatic differentiation.

Every feature map in the network is carried by a :class:`Tensor`. Ops build a
computation graph; ``Tensor.backward()`` walks it in reverse topological order
and accumulates gradients into every ``requires_grad`` leaf. Gradients keep
accumulating in a leaf's ``.grad`` across backward calls until explicitly
zeroed, matching the usual training-loop semantics.

A graph supports one ``backward()``. As it runs, each intermediate node is
freed as soon as its gradients have gone to its parents: its ``.grad``,
parents and backward function are dropped, so a step's activations are
released during backward rather than after it. Intermediates therefore keep
no ``.grad``, and a second ``backward()`` through a freed node raises
``RuntimeError``.

An op's backward function only computes: given the gradient of the op's
output, it returns one gradient per parent, ``None`` where the parent needs
none. A returned gradient may still carry the axes numpy broadcast the parent
over. ``Tensor.backward`` is the one place that skips parents without
``requires_grad``, sums broadcast axes away and accumulates into ``.grad``.

Three layers are fused into one graph node each, with a closed-form backward:
``attention`` (multi-head scaled dot-product attention), ``linear`` and
``normalize`` (train-mode BatchNorm and LayerNorm).

All math is float64 and single-threaded-deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "concat",
    "stack",
    "matmul",
    "conv",
    "linear",
    "attention",
    "normalize",
    "softmax",
    "sigmoid",
    "leaky_relu",
    "relu",
    "softplus",
    "gem",
    "pairwise_part_distances",
    "batch_all_triplet",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (forward-only mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away extra leading axes, then axes that were broadcast from 1.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """Wrap an op's output as a graph node.

        ``backward(g)`` maps the gradient of `data` to one gradient per entry
        of `parents`, in order: ``None`` where that parent needs none, else an
        array that may still carry broadcast axes. The node keeps `backward`
        only when gradients are on and some parent requires grad, so an op
        with one parent never needs to check ``requires_grad``.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add `grad` into ``.grad``. The first gradient is copied unless
        `owned` says no other array or node holds it, so later ``+=`` writes
        cannot reach anyone else's memory."""
        if self.grad is None:
            self.grad = grad if owned else np.array(grad)
        else:
            self.grad += grad

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into leaf ``.grad``.

        Frees the graph as it goes (see the module docstring): afterwards only
        leaves hold gradients, and the graph cannot be backpropagated again.
        """
        if self.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), owned=True)
        # pop, so each node is released once its children have run
        while topo:
            topo.pop()._backprop()

    def _backprop(self) -> None:
        """Hand this node's gradient to its parents, then free the node.

        A parent takes a returned gradient as its ``.grad`` without a copy
        only when nothing else can see that array: it is not this node's own
        ``.grad`` (``__add__`` returns ``(g, g)``), not a view, and not
        returned twice in one tuple. A numpy scalar is copied into a 0-d
        array, so ``.grad`` is always an ndarray.
        """
        if self._backward is None:
            return  # a leaf keeps its .grad
        if self.grad is not None:
            grads = self._backward(self.grad)
            for parent, grad in zip(self._parents, grads, strict=True):
                if grad is None or not parent.requires_grad:
                    continue
                grad = _unbroadcast(grad, parent.shape)
                owned = (
                    type(grad) is np.ndarray
                    and grad.base is None
                    and grad is not self.grad
                    and sum(other is grad for other in grads) < 2
                )
                parent._accumulate(grad, owned)
        self.grad, self._parents, self._backward = None, (), _freed_backward

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor._result(self.data + other.data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        data = a.data * b.data

        def backward(g):
            return (
                g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None,
            )

        return Tensor._result(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        data = a.data / b.data

        def backward(g):
            return (
                g / b.data if a.requires_grad else None,
                -g * a.data / (b.data * b.data) if b.requires_grad else None,
            )

        return Tensor._result(data, (a, b), backward)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __pow__(self, exponent):
        """Elementwise power; exponent may be a float or a Tensor (base > 0)."""
        exp = exponent if isinstance(exponent, Tensor) else Tensor(exponent)
        a, e = self, exp
        data = a.data ** e.data

        def backward(g):
            return (
                g * e.data * a.data ** (e.data - 1.0) if a.requires_grad else None,
                g * data * np.log(a.data) if e.requires_grad else None,
            )

        return Tensor._result(data, (a, e), backward)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._result(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return Tensor._result(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),)
        )

    def __getitem__(self, key):
        a = self
        data = self.data[key]

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._result(data, (a,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        axes = _normalize_axes(axis, self.ndim)
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not keepdims and axes is not None:
                g = np.expand_dims(g, axes)
            # copy to C order: `_accumulate` would keep the view's stride order,
            # and downstream reductions sum in memory order
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._result(data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        if axes is None:
            count = self.size
        else:
            count = int(np.prod([self.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False):
        """Max over `axis`; ties route gradient to the first argmax in
        row-major order, so backward is deterministic."""
        a = self
        axes = _normalize_axes(axis, self.ndim)
        if axes is None:
            axes = tuple(range(self.ndim))
        kept = tuple(i for i in range(self.ndim) if i not in axes)
        perm = kept + axes
        moved = self.data.transpose(perm)
        kept_shape = tuple(self.shape[i] for i in kept)
        red = int(np.prod([self.shape[i] for i in axes])) if axes else 1
        flat = moved.reshape(kept_shape + (red,))
        idx = flat.argmax(axis=-1)  # np.argmax takes the first maximum
        data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

        def backward(g):
            scat = np.zeros_like(flat)
            np.put_along_axis(scat, idx[..., None], g.reshape(kept_shape)[..., None], axis=-1)
            return (scat.reshape(tuple(a.shape[i] for i in perm)).transpose(np.argsort(perm)),)

        if keepdims:
            data = data.reshape(tuple(1 if i in axes else s for i, s in enumerate(self.shape)))
        return Tensor._result(data, (a,), backward)

    # -- elementwise nonlinearities ---------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return Tensor._result(data, (self,), lambda g: (g * data,))

    def log(self):
        x = self.data
        return Tensor._result(np.log(x), (self,), lambda g: (g / x,))

    def sqrt(self):
        data = np.sqrt(self.data)
        return Tensor._result(data, (self,), lambda g: (g * 0.5 / data,))


def _freed_backward(g):
    raise RuntimeError("backward through a graph that was already freed")


def _normalize_axes(axis, ndim) -> tuple[int, ...] | None:
    if axis is None:
        return None
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    for a in axis:
        if not -ndim <= a < ndim:
            raise ShapeError(f"axis {a} out of range for ndim {ndim}")
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate axes {axis}")
    return axes


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes[:-1])
    return Tensor._result(data, tuple(tensors), lambda g: np.split(g, splits, axis=axis))


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    (axis,) = _normalize_axes(axis, tensors[0].ndim + 1)
    expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concat(expanded, axis=axis)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacking semantics on leading axes."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        return (
            g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
            np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None,
        )

    return Tensor._result(data, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` for x (..., Din), weight (Din, Dout).

    One graph node; its weight gradient is one GEMM of x and the output
    gradient with their leading axes flattened.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear: input feature dim {x.shape} does not match weight {weight.shape}"
        )
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def backward(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = None
        if weight.requires_grad:
            gw = x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return (gx, gw) if bias is None else (gx, gw, g)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(data, parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention (Vaswani et al., 2017) on
    (..., K, C) tensors, as one graph node.

    The C channels split into `heads` groups of dk = C // heads; each group
    attends over the K axis with ``P = softmax(q k^T / sqrt(dk))``, and the
    heads' ``P v`` concatenate back to C channels. The forward makes the same
    products on the same head-split views as the composite of matmul, softmax
    and transposes, so its output equals that composite's bit for bit. The
    backward is the closed form from the kept probabilities P: with
    ``gP = gO v^T`` and ``gS = P * (gP - rowsum(gP * P)) / sqrt(dk)``, it
    gives ``gq = gS k``, ``gk = gS^T q`` and ``gv = P^T gO``.
    """
    if not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} differ")
    *lead, kk, c = q.shape
    if c % heads != 0:
        raise ValueError(f"attention: channels {c} not divisible by heads {heads}")
    dk = c // heads
    nl = len(lead)
    swap = tuple(range(nl)) + (nl + 1, nl, nl + 2)  # its own inverse

    def split(a):
        """(..., K, C) -> (..., heads, K, dk) view."""
        return a.reshape(tuple(lead) + (kk, heads, dk)).transpose(swap)

    def merge(a):
        """(..., heads, K, dk) -> (..., K, C)."""
        return a.transpose(swap).reshape(q.shape)

    def t(a):
        return np.swapaxes(a, -1, -2)

    scale = 1.0 / math.sqrt(dk)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the scores turn into probabilities in place, so no (..., heads, K, K)
    # temporaries are made
    p = qh @ t(kh)
    p *= scale
    _softmax_inplace(p, -1)
    data = merge(p @ vh)

    def backward(g):
        gh = split(g)
        gq = gk = None
        if q.requires_grad or k.requires_grad:
            gs = _softmax_grad_inplace(gh @ t(vh), p, -1)  # gP, turned into gS
            gs *= scale
            gq = merge(gs @ kh) if q.requires_grad else None
            gk = merge(t(gs) @ qh) if k.requires_grad else None
        return gq, gk, merge(t(p) @ gh) if v.requires_grad else None

    return Tensor._result(data, (q, k, v), backward)


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) without overflow: exp only sees -|d|."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = _stable_sigmoid(x.data)
    return Tensor._result(data, (x,), lambda g: (g * data * (1.0 - data),))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    pos = x.data > 0
    data = np.where(pos, x.data, slope * x.data)
    return Tensor._result(data, (x,), lambda g: (g * np.where(pos, 1.0, slope),))


def relu(x: Tensor) -> Tensor:
    return leaky_relu(x, slope=0.0)


def softplus(x: Tensor) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    d = x.data
    data = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))
    sig = _stable_sigmoid(d)
    return Tensor._result(data, (x,), lambda g: (g * sig,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`; rows sum to 1 and the map is shift-invariant."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    (axis,) = _normalize_axes(axis, x.ndim)
    data = _softmax_inplace(x.data.copy(), axis)

    def backward(g):
        return (_softmax_grad_inplace(g.copy(), data, axis),)

    return Tensor._result(data, (x,), backward)


def _softmax_inplace(a: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite `a` with its softmax along `axis` (max-shifted) and return it.

    Each in-place step is the same IEEE operation as its out-of-place form
    ``e = exp(a - max(a)); e / sum(e)``, so the result equals it bit for bit.
    """
    a -= a.max(axis=axis, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=axis, keepdims=True)
    return a


def _softmax_grad_inplace(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite the output gradient `g` of softmax `p` with its input
    gradient ``p * (g - sum(g * p))`` along `axis`, and return it."""
    g -= (g * p).sum(axis=axis, keepdims=True)
    g *= p
    return g


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _per_axis(value, nd: int, name: str, low: int) -> tuple[int, ...]:
    entries = (value,) * nd if np.ndim(value) == 0 else tuple(value)
    if not all(isinstance(v, (int, np.integer)) for v in entries):
        raise ShapeError(f"conv: {name} must be integers, got {value!r}")
    value = tuple(int(v) for v in entries)
    if len(value) != nd:
        raise ShapeError(f"{name} must have {nd} entries, got {value}")
    if any(v < low for v in value):
        raise ShapeError(f"conv: {name} must be >= {low}, got {value}")
    return value


def conv(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation=1,
    padding=0,
) -> Tensor:
    """N-dimensional unit-stride cross-correlation.

    x: (N, Cin, *spatial); weight: (Cout, Cin, *kernel); bias: (Cout,) or None.
    Covers the 1-D, 2-D, and 3-D cases uniformly; differentiable w.r.t. input,
    kernel, and bias. dilation >= 1 and padding >= 0, per axis or for all.

    Every product works in one layout, (N, Cin·k, out): the forward copies
    the dilated window view of the padded input, kernel axes first, into a
    contiguous (N, Cin, *k, *out) column buffer (a 1x1 kernel's columns are
    the input itself), then makes one (Cout, Cin·k) @ (Cin·k, out) GEMM per
    sample. The GEMM has the same shape at every N, so a sample's output does
    not depend on the batch it is in. Both gradients go one tap at a time
    through the same window view; the column buffer is not kept for them.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    weight = weight if isinstance(weight, Tensor) else Tensor(weight)
    nd = weight.ndim - 2
    if x.ndim != nd + 2:
        raise ShapeError(f"conv: input {x.shape} does not fit kernel {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"conv: input channels {x.shape} do not match kernel channels {weight.shape}"
        )
    dilation = _per_axis(dilation, nd, "dilation", 1)
    padding = _per_axis(padding, nd, "padding", 0)
    n, cin = x.shape[:2]
    cout, ksizes = weight.shape[0], weight.shape[2:]
    eff = tuple((k - 1) * d + 1 for k, d in zip(ksizes, dilation))

    pad_spec = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
    xp = np.pad(x.data, pad_spec) if any(padding) else x.data
    if any(s < e for s, e in zip(xp.shape[2:], eff)):
        raise ShapeError(f"conv: kernel {weight.shape} does not fit padded input {xp.shape}")

    spatial = tuple(range(2, 2 + nd))
    taps = (...,) + tuple(slice(None, None, d) for d in dilation)
    out = tuple(s - e + 1 for s, e in zip(xp.shape[2:], eff))
    ntaps, nout = math.prod(ksizes), math.prod(out)

    def windows(a, writeable=False):
        """(N, C, *out, *k) dilated window view of the padded array `a`."""
        view = np.lib.stride_tricks.sliding_window_view(a, eff, spatial, writeable=writeable)
        return view[taps]

    win = windows(xp)
    if ntaps == 1:
        cols = xp
    else:
        cols = np.empty((n, cin) + ksizes + out)
        cols[...] = win.transpose((0, 1) + tuple(range(2 + nd, 2 + 2 * nd)) + spatial)
    cols = cols.reshape(n, cin * ntaps, nout)
    data = np.matmul(weight.data.reshape(cout, -1), cols).reshape((n, cout) + out)
    if bias is not None:
        data += bias.data.reshape((1, -1) + (1,) * nd)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        # g: (N, Cout, *out)
        gx = gw = gb = None
        g3 = g.reshape(n, cout, nout)
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for k in np.ndindex(*ksizes):
                win_k = win[(..., *k)].reshape(n, cin, nout)
                gw[(..., *k)] = np.matmul(g3, win_k.transpose(0, 2, 1)).sum(axis=0)
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(0,) + spatial)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            gwin = windows(gxp, writeable=True)
            w_taps = np.ascontiguousarray(np.moveaxis(weight.data, 0, -1))  # (Cin, *k, Cout)
            # at unit stride one tap's windows never overlap, so each `+=`
            # writes every element of gxp at most once and loses no update
            for k in np.ndindex(*ksizes):
                part = np.matmul(w_taps[(slice(None), *k)], g3)  # (N, Cin, out)
                gwin[(..., *k)] += part.reshape((n, cin) + out)
            core = (slice(None), slice(None)) + tuple(
                slice(p, p + s) for p, s in zip(padding, x.shape[2:])
            )
            gx = gxp[core]
        return (gx, gw) if bias is None else (gx, gw, gb)

    return Tensor._result(data, parents, backward)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes, channel: int, eps: float):
    """Fused normalization ``xhat * gamma + beta`` as one graph node, with
    ``xhat`` standardized over `axes` by the biased batch statistics.

    gamma and beta are (C,), laid along the `channel` axis of x: train-mode
    BatchNorm passes the non-channel axes and channel 1; LayerNorm passes the
    last axis as both. Returns ``(out, mean, var)``; mean and var are plain
    arrays with `axes` kept, for running statistics. The forward repeats
    `checks.batch_norm_stats` step for step, so all three equal the oracle's
    bit for bit. The backward is the closed form (Ioffe & Szegedy, 2015) with
    ``gh = g * gamma``: ``gx = (gh - mean(gh) - xhat * mean(gh * xhat)) / std``;
    it keeps only ``xhat`` and ``std``.
    """
    axes = _normalize_axes(axes, x.ndim)
    (channel,) = _normalize_axes(channel, x.ndim)
    c = x.shape[channel]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"normalize: gamma {gamma.shape} and beta {beta.shape} must be ({c},) "
            f"for axis {channel} of {x.shape}"
        )
    cshape = tuple(c if a == channel else 1 for a in range(x.ndim))
    others = tuple(a for a in range(x.ndim) if a != channel)
    gamma_c = gamma.data.reshape(cshape)
    scale = 1.0 / int(np.prod([x.shape[a] for a in axes]))
    mean = x.data.sum(axis=axes, keepdims=True) * scale
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * scale
    std = np.sqrt(var + eps)
    xhat = centered / std
    data = xhat * gamma_c + beta.data.reshape(cshape)

    def backward(g):
        gx = None
        if x.requires_grad:
            gh = g * gamma_c
            gx = (
                gh
                - gh.mean(axis=axes, keepdims=True)
                - xhat * (gh * xhat).mean(axis=axes, keepdims=True)
            ) / std
        return (
            gx,
            (g * xhat).sum(axis=others) if gamma.requires_grad else None,
            g.sum(axis=others) if beta.requires_grad else None,
        )

    return Tensor._result(data, (x, gamma, beta), backward), mean, var


# ---------------------------------------------------------------------------
# generalized-mean pooling
# ---------------------------------------------------------------------------


def gem(x: Tensor, p: Tensor, axis: int = -1) -> Tensor:
    """Generalized-mean pool over one axis: (mean(x**p))**(1/p), x >= 0.

    p = 1 reduces to the average exactly; p -> inf approaches the max.
    Zero entries get a zero subgradient so fractional p stays finite.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    p = p if isinstance(p, Tensor) else Tensor(p)
    if p.size != 1:
        raise ShapeError("gem: p must be a scalar")
    if np.any(x.data < 0):
        raise ValueError("gem: negative inputs are rejected")
    pv = float(p.data.reshape(-1)[0])
    if pv <= 0:
        raise ValueError(f"gem: p must be positive, got {pv}")
    (axis,) = _normalize_axes(axis, x.ndim)
    w = x.shape[axis]

    xd = x.data
    xp = xd ** pv
    m = xp.mean(axis=axis)  # (kept...)
    data = m ** (1.0 / pv)

    def backward(g):
        safe_m = np.where(m > 0, m, 1.0)
        gx = gp = None
        if x.requires_grad:
            outer = np.where(m > 0, safe_m ** (1.0 / pv - 1.0), 1.0 if pv == 1.0 else 0.0)
            codata = np.expand_dims(g * outer, axis)
            if pv == 1.0:
                xpow = np.ones_like(xd)
            else:
                xpow = np.where(xd > 0, np.where(xd > 0, xd, 1.0) ** (pv - 1.0), 0.0)
            gx = codata * xpow / w
        if p.requires_grad:
            # d/dp of exp(log(m(p))/p)
            xlogx = np.where(xd > 0, xp * np.log(np.where(xd > 0, xd, 1.0)), 0.0)
            mprime = xlogx.mean(axis=axis)
            dlog = np.where(
                m > 0,
                mprime / safe_m / pv - np.log(safe_m) / pv**2,
                0.0,
            )
            gp = np.array((g * data * dlog).sum()).reshape(p.shape)
        return gx, gp

    return Tensor._result(data, (x, p), backward)


# ---------------------------------------------------------------------------
# metric-learning kernels
# ---------------------------------------------------------------------------


def pairwise_part_distances(emb: Tensor) -> Tensor:
    """Per-part Euclidean distance matrices.

    emb: (N, C, P) part embeddings -> (P, N, N) distances over the C channels.
    The diagonal is exactly zero; zero-distance pairs get zero gradient.
    """
    emb = emb if isinstance(emb, Tensor) else Tensor(emb)
    if emb.ndim != 3:
        raise ShapeError(f"pairwise_part_distances: want (N, C, P), got {emb.shape}")
    e = emb.data.transpose(2, 0, 1)  # (P, N, C)
    sq = (e * e).sum(axis=2)
    gram = e @ e.transpose(0, 2, 1)
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    data = np.sqrt(d2)
    for m in data:
        np.fill_diagonal(m, 0.0)

    def backward(g):
        safe = np.where(data > 1e-12, data, 1.0)
        w = np.where(data > 1e-12, (g + g.transpose(0, 2, 1)) / safe, 0.0)
        ge = w.sum(axis=2)[:, :, None] * e - w @ e  # (P, N, C)
        return (ge.transpose(1, 2, 0),)

    return Tensor._result(data, (emb,), backward)


def batch_all_triplet(dist: Tensor, labels: np.ndarray, margin: float):
    """Batch-all triplet hinge on per-part distance matrices.

    dist: (P, N, N); labels: (N,). For every valid (anchor, positive, negative)
    triplet the term is max(0, margin + d_ap - d_an); each part averages its
    strictly positive terms (0 if none) and the loss is the mean over parts.

    Returns (loss Tensor, active_fraction float).
    """
    dist = dist if isinstance(dist, Tensor) else Tensor(dist)
    labels = np.asarray(labels)
    P, n, n2 = dist.shape
    if n != n2 or labels.shape != (n,):
        raise ShapeError(f"batch_all_triplet: dist {dist.shape} vs labels {labels.shape}")
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    n_valid_per_anchor = pos_mask.sum(1) * neg_mask.sum(1)
    total_valid = int(n_valid_per_anchor.sum())
    if total_valid == 0:
        raise ValueError("batch_all_triplet: no valid (anchor, positive, negative) triplet")

    tri_mask = pos_mask[:, :, None] & neg_mask[:, None, :]  # (N, N, N)
    coeff = np.zeros_like(dist.data)
    total = 0.0
    active = 0
    for pi in range(P):
        d = dist.data[pi]
        terms = margin + d[:, :, None] - d[:, None, :]
        act = tri_mask & (terms > 0)
        cnt = int(act.sum())
        active += cnt
        if cnt:
            total += terms[act].sum() / cnt
            coeff[pi] = (act.sum(axis=2) - act.sum(axis=1)) / (cnt * P)
    loss_val = total / P
    active_fraction = active / (total_valid * P)

    out = Tensor._result(np.asarray(loss_val), (dist,), lambda g: (float(g) * coeff,))
    return out, active_fraction
