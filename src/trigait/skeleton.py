"""Skeleton branch: multi-input encoding and stacked JSA-TC blocks.

Each block runs joint self-attention (multi-head, per frame, all joint pairs)
followed by a per-joint temporal convolution, BN + leaky ReLU after each
stage, and a residual connection around the block. The stack ends with a
temporal max pool and an adaptive average pool that maps the joint axis onto
the silhouette part axis so the two branch outputs can be fused per part.
"""

from __future__ import annotations

import numpy as np

from .nn import BatchNorm, Conv, Linear, Module, ModuleList
from .synth import NUM_JOINTS, PARENTS
from .tensor import Tensor, attention, leaky_relu, matmul

MULTI_INPUT_CHANNELS = 10


def multi_input(joints: np.ndarray) -> np.ndarray:
    """Encode (N, T, K, 2) joint coordinates as 10 channels: absolute (u, v),
    one-step motion, two-step motion, bone vector to parent, bone unit
    direction. Returns (N, 10, T, K)."""
    if joints.ndim == 3:
        joints = joints[None]
    n, t, k, _ = joints.shape
    if t < 3:
        raise ValueError(f"multi_input: need T >= 3 frames, got {t}")
    if k != NUM_JOINTS:
        raise ValueError(f"multi_input: expected {NUM_JOINTS} joints, got {k}")

    motion1 = np.zeros_like(joints)
    motion1[:, :-1] = joints[:, 1:] - joints[:, :-1]
    motion2 = np.zeros_like(joints)
    motion2[:, :-2] = joints[:, 2:] - joints[:, :-2]
    bone = joints - joints[:, :, PARENTS, :]
    norm = np.linalg.norm(bone, axis=3, keepdims=True)
    bone_unit = np.where(norm > 1e-12, bone / np.where(norm > 1e-12, norm, 1.0), 0.0)

    feats = np.concatenate([joints, motion1, motion2, bone, bone_unit], axis=3)
    return feats.transpose(0, 3, 1, 2)  # (N, 10, T, K)


class JointSelfAttention(Module):
    """Per-frame multi-head self-attention across joints; heads concatenate
    with no output projection. (N, Cin, T, K) -> (N, Cout, T, K)."""

    def __init__(self, cin: int, cout: int, heads: int, rng):
        super().__init__()
        if cout % heads != 0:
            raise ValueError(f"JSA: out channels {cout} not divisible by heads {heads}")
        self.heads = heads
        self.q = Linear(cin, cout, rng)
        self.k = Linear(cin, cout, rng)
        self.v = Linear(cin, cout, rng)

    def forward(self, x: Tensor) -> Tensor:
        n, c, t, k = x.shape
        h = x.transpose(0, 2, 3, 1)  # (N, T, K, Cin)
        out = attention(self.q(h), self.k(h), self.v(h), self.heads)
        return out.transpose(0, 3, 1, 2)


class JsaTcBlock(Module):
    """JSA then per-joint temporal conv, BN+activation after each stage, with
    a residual connection (1x1 projection when channel counts differ)."""

    def __init__(self, cin: int, cout: int, heads: int, rng, tc_kernel: int = 3):
        super().__init__()
        self.jsa = JointSelfAttention(cin, cout, heads, rng)
        self.bn1 = BatchNorm(cout)
        pad = tc_kernel // 2
        self.tc = Conv(cout, cout, (tc_kernel, 1), rng, padding=(pad, 0))
        self.bn2 = BatchNorm(cout)
        self.proj = Conv(cin, cout, (1, 1), rng, bias=False) if cin != cout else None

    def forward(self, x: Tensor) -> Tensor:
        h = leaky_relu(self.bn1(self.jsa(x)))
        z = leaky_relu(self.bn2(self.tc(h)))
        res = self.proj(x) if self.proj is not None else x
        return z + res


def adaptive_avg_pool_axis(x: Tensor, out_size: int) -> Tensor:
    """Adaptive average pooling of the last axis, as one product with an (n, m)
    averaging matrix: window i covers [floor(i*n/m), ceil((i+1)*n/m))."""
    n, i = x.shape[-1], np.arange(out_size)
    lo, hi = (i * n) // out_size, -(-((i + 1) * n) // out_size)  # ceil division
    inside = (np.arange(n)[:, None] >= lo) & (np.arange(n)[:, None] < hi)
    return matmul(x, Tensor(inside / (hi - lo)))


class SkeletonBranch(Module):
    """(N, T, 17, 2) raw joints -> (N, C_last, parts); the joint axis is
    pooled onto the silhouette part axis."""

    def __init__(self, channels: tuple, heads: int, tc_kernel: int, parts: int,
                 rng: np.random.Generator):
        super().__init__()
        self.parts = parts
        self.input_bn = BatchNorm(MULTI_INPUT_CHANNELS)
        chans = (MULTI_INPUT_CHANNELS,) + tuple(channels)
        self.blocks = ModuleList(
            [
                JsaTcBlock(chans[i], chans[i + 1], heads, rng, tc_kernel)
                for i in range(len(channels))
            ]
        )

    def forward(self, joints: np.ndarray) -> tuple[Tensor, Tensor]:
        """Returns (Gait_ske (N, C, P1), first-block map (N, C1, T, K) for fusion)."""
        x = Tensor(multi_input(joints))
        h = self.input_bn(x)
        first = None
        for block in self.blocks:
            h = block(h)
            if first is None:
                first = h
        f_ske = h.max(axis=2)  # temporal max pool -> (N, C, K)
        gait_ske = adaptive_avg_pool_axis(f_ske, self.parts)
        return gait_ske, first
