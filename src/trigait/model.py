"""Full network: three branches, per-part fusion of the unimodal outputs,
and the classification head."""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .fusion import FusionBranch
from .losses import LossReport, cross_entropy, triplet_ba_loss
from .nn import Linear, Module, Parameter
from .silhouette import SilhouetteBranch
from .skeleton import SkeletonBranch
from .tensor import Tensor, concat, matmul


class PartwiseLinear(Module):
    """Independent affine map per part: (N, Din, P) -> (N, Dout, P)."""

    def __init__(self, parts: int, din: int, dout: int, rng):
        super().__init__()
        bound = math.sqrt(1.0 / din)
        self.weight = Parameter(rng.uniform(-bound, bound, (parts, din, dout)))
        self.bias = Parameter(rng.uniform(-bound, bound, (parts, 1, dout)))

    def forward(self, x: Tensor) -> Tensor:
        h = x.transpose(2, 0, 1)                      # (P, N, Din)
        out = matmul(h, self.weight) + self.bias      # (P, N, Dout)
        return out.transpose(1, 2, 0)


class GaitAssembler(Module):
    """concat(Gait_sil, alpha * Gait_ske) -> per-part reduction -> concat with
    the fusion parts along the part axis."""

    def __init__(self, sil_channels: int, ske_channels: int, parts: int, embed_dim: int, rng):
        super().__init__()
        self.alpha = Parameter(np.array(1.0))
        self.fc = PartwiseLinear(parts, sil_channels + ske_channels, embed_dim, rng)

    def forward(self, gait_sil: Tensor, gait_ske: Tensor, gait_fuse: Tensor) -> Tensor:
        merged = concat([gait_sil, gait_ske * self.alpha], axis=1)
        reduced = self.fc(merged)                     # (N, embed, P1)
        return concat([reduced, gait_fuse], axis=2)   # (N, embed, P1 + 7)


class TriGaitNet(Module):
    """End-to-end tri-branch embedding network, built from the resolved run
    config: the one place that turns its settings into branch sizes."""

    def __init__(self, config: RunConfig, num_subjects: int, rng: np.random.Generator):
        super().__init__()
        problems = config.validate()
        if num_subjects < 2:
            problems.append(f"num_subjects must be >= 2, got {num_subjects}")
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))
        c = config.resolved()
        parts = c.input_size // 4                     # after the stem's two 2x2 poolings
        self.margin = c.margin
        self.silhouette = SilhouetteBranch(
            c.sil_channels, c.sil_parts, c.sil_reduction, c.sil_dilations, c.gem_p_init, rng
        )
        self.skeleton = SkeletonBranch(c.ske_channels, c.ske_heads, c.tc_kernel, parts, rng)
        self.fusion = FusionBranch(
            c.sil_channels[0], c.ske_channels[0], c.embed_dim, c.fusion_heads,
            c.partition_mode, rng,
        )
        # the silhouette branch concatenates appearance and motion channels
        self.assembler = GaitAssembler(
            2 * c.sil_channels[-1], c.ske_channels[-1], parts, c.embed_dim, rng
        )
        self.classifier = Linear(c.embed_dim, num_subjects, rng)

    def forward(self, silhouettes: np.ndarray, joints: np.ndarray) -> Tensor:
        """silhouettes: (N, T, H, W) in [0, 1]; joints: (N, T, 17, 2) pixels.

        Returns part embeddings (N, embed_dim, input_size // 4 + 7).
        """
        sil = np.asarray(silhouettes, dtype=np.float64)
        n, t, h, w = sil.shape
        x = Tensor(sil.reshape(n, 1, t, h, w))
        gait_sil, f_x = self.silhouette(x)
        gait_ske, f_y = self.skeleton(joints)
        gait_fuse = self.fusion(f_x, f_y, np.asarray(joints, dtype=np.float64))
        return self.assembler(gait_sil, gait_ske, gait_fuse)

    def logits(self, embeddings: Tensor) -> Tensor:
        pooled = embeddings.mean(axis=2)              # mean over parts -> (N, embed)
        return self.classifier(pooled)

    def loss(self, embeddings: Tensor, labels: np.ndarray):
        """Combined metric + classification loss; returns (Tensor, LossReport)."""
        l_tri, active = triplet_ba_loss(embeddings, labels, self.margin)
        l_ce = cross_entropy(self.logits(embeddings), labels)
        total = l_tri + l_ce
        report = LossReport(
            l_tri=float(l_tri.data),
            l_ce=float(l_ce.data),
            total=float(total.data),
            active_triplet_fraction=active,
        )
        return total, report


def preprocess_silhouettes(frames: np.ndarray, in_hw: int) -> np.ndarray:
    """uint8 (N, T, 64, 64) -> float (N, T, in_hw, in_hw) by block max."""
    frames = np.asarray(frames)
    n, t, h, w = frames.shape
    if h == in_hw:
        return frames.astype(np.float64)
    if h % in_hw != 0:
        raise ValueError(f"cannot downsample {h} -> {in_hw}")
    f = h // in_hw
    blocks = frames.reshape(n, t, in_hw, f, in_hw, f)
    return blocks.max(axis=(3, 5)).astype(np.float64)
