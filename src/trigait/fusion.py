"""Cross-modal fusion branch.

Low-level silhouette and skeleton features are aligned into 7 body-part
tokens: the skeleton side indexes joints per part, the silhouette side slices
feature-map rows covering the part's vertical motion range over the sequence
(or fixed uniform bands in the ablation wiring). Each side is reduced by
max-pool plus average-pool, concatenated over channels, fed through one
transformer encoder layer across the 7 tokens per frame, and max-pooled over
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import LayerNorm, Linear, Module
from .synth import L_HIP, L_SHO, NUM_JOINTS, R_HIP, R_SHO
from .tensor import Tensor, attention, concat, matmul, relu

PARTS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("head", (0, 1, 2, 3, 4)),
    ("shoulder", (5, 6)),
    ("elbow", (7, 8)),
    ("wrist", (9, 10)),
    ("hip", (11, 12)),
    ("knee", (13, 14)),
    ("ankle", (15, 16)),
)

NUM_PARTS = len(PARTS)

# (17, 7): joint j belongs to part p
JOINT_MEMBERSHIP = np.array([[j in idx for _, idx in PARTS] for j in range(NUM_JOINTS)])

_EXCLUDED = 1e30


@dataclass
class PartRange:
    """Vertical motion range of one body part mapped onto feature rows."""

    name: str
    h_f: float       # lowest normalized vertical position reached (flexion)
    h_e: float       # highest normalized vertical position reached (extension)
    row_lo: int
    row_hi: int


def neck_normalize(joints: np.ndarray) -> np.ndarray:
    """Per frame: hip midpoint becomes the origin and coordinates are scaled
    so the neck proxy (shoulder midpoint) sits at vertical distance 1.

    Accepts (T, K, 2) or (N, T, K, 2); scale-invariant by construction.
    """
    squeeze = joints.ndim == 3
    if squeeze:
        joints = joints[None]
    origin = 0.5 * (joints[:, :, L_HIP] + joints[:, :, R_HIP])  # (N, T, 2)
    neck_v = 0.5 * (joints[:, :, L_SHO, 1] + joints[:, :, R_SHO, 1]) - origin[:, :, 1]
    bad = np.abs(neck_v) < 1e-9
    if bad.any():
        n, t = np.argwhere(bad)[0]
        raise ValueError(f"neck_normalize: degenerate pose (zero neck height) at frame {t}")
    scaled = (joints - origin[:, :, None, :]) / np.abs(neck_v)[:, :, None, None]
    return scaled[0] if squeeze else scaled


def motion_row_ranges(normalized: np.ndarray, h_feat: int) -> np.ndarray:
    """Map each part's vertical min/max onto feature rows.

    normalized: (N, T, K, 2). The sequence's global vertical extent spans rows
    [0, h_feat - 1]; part ranges round outward and may overlap. -> (N, 7, 2).
    """
    v = normalized[..., 1]  # (N, T, K)
    vmin = v.min(axis=(1, 2), keepdims=True)
    vmax = v.max(axis=(1, 2), keepdims=True)
    span = np.maximum(vmax - vmin, 1e-12)
    rows = np.zeros((v.shape[0], NUM_PARTS, 2), dtype=np.int64)
    for p, (_, idx) in enumerate(PARTS):
        pv = v[:, :, list(idx)]
        hf = pv.min(axis=(1, 2), keepdims=True)
        he = pv.max(axis=(1, 2), keepdims=True)
        lo = np.floor((hf - vmin) / span * (h_feat - 1))
        hi = np.ceil((he - vmin) / span * (h_feat - 1))
        rows[:, p, 0] = np.clip(lo[:, 0, 0], 0, h_feat - 1)
        rows[:, p, 1] = np.clip(hi[:, 0, 0], 0, h_feat - 1)
    rows[..., 1] = np.maximum(rows[..., 1], rows[..., 0])
    return rows


def motion_ranges(normalized: np.ndarray, h_feat: int) -> list[PartRange]:
    """Single-sequence part ranges: (T, K, 2) normalized joints -> 7 PartRange."""
    if normalized.ndim != 3:
        raise ValueError(f"motion_ranges: want (T, K, 2), got {normalized.shape}")
    rows = motion_row_ranges(normalized[None], h_feat)[0]
    v = normalized[..., 1]
    out = []
    for p, (name, idx) in enumerate(PARTS):
        pv = v[:, list(idx)]
        out.append(
            PartRange(name, float(pv.min()), float(pv.max()), int(rows[p, 0]), int(rows[p, 1]))
        )
    return out


def uniform_partition_ranges(h_feat: int) -> list[PartRange]:
    """Ablation wiring: equal contiguous row bands covering [0, h_feat), the
    remainder going to the topmost bands."""
    base, rem = divmod(h_feat, NUM_PARTS)
    out = []
    row = 0
    for p, (name, _) in enumerate(PARTS):
        height = base + (1 if p < rem else 0)
        hi = row + height - 1
        out.append(PartRange(name, float(row), float(hi), row, hi))
        row += height
    return out


def uniform_row_ranges(h_feat: int, n: int) -> np.ndarray:
    bands = uniform_partition_ranges(h_feat)
    rows = np.array([[r.row_lo, r.row_hi] for r in bands], dtype=np.int64)
    return np.broadcast_to(rows, (n, NUM_PARTS, 2)).copy()


def _part_max_plus_mean(maxes: Tensor, means: Tensor, member: np.ndarray) -> Tensor:
    """Per part, max of `maxes` plus mean of `means` over its members: (N, C, T, L) maps and
    (N or 1, 7, L) bool membership -> (N, C, T, 7). Non-members get -1e30, members + 0.0."""
    gate = Tensor(np.where(member, 0.0, -_EXCLUDED)[:, None, None])  # (n, 1, 1, 7, L)
    part_max = (maxes.reshape(maxes.shape[:3] + (1, -1)) + gate).max(axis=4)
    weights = (member / member.sum(axis=2, keepdims=True)).swapaxes(1, 2)  # (n, L, 7)
    return part_max + matmul(means, Tensor(weights[:, None]))


def cross_modal_tokens(f_x: Tensor, f_y: Tensor, row_ranges: np.ndarray) -> Tensor:
    """Build aligned part tokens.

    f_x: (N, C1, T, H_feat, W) first silhouette stem map; f_y: (N, C2, T, K)
    first skeleton block map; row_ranges: (N, 7, 2) inclusive feature rows.
    Each part pools its support with max + avg (summed) on both sides and
    concatenates over channels -> (N, C1+C2, T, 7).
    """
    n, _, t, hf, _ = f_x.shape
    if f_y.shape[0] != n or f_y.shape[2] != t:
        raise ValueError(f"cross_modal_tokens: misaligned inputs {f_x.shape} vs {f_y.shape}")
    if row_ranges.shape != (n, NUM_PARTS, 2):
        raise ValueError(f"cross_modal_tokens: row_ranges shape {row_ranges.shape}")
    rows = np.arange(hf)
    member = (rows >= row_ranges[..., :1]) & (rows <= row_ranges[..., 1:])  # (N, 7, Hf)
    empty = np.flatnonzero(~member.any(axis=2).all(axis=0))
    if empty.size:
        raise ValueError(f"cross_modal_tokens: empty row range for part {empty[0]}")
    x_tok = _part_max_plus_mean(f_x.max(axis=4), f_x.mean(axis=4), member)
    y_tok = _part_max_plus_mean(f_y, f_y, JOINT_MEMBERSHIP.T[None])
    return concat([x_tok, y_tok], axis=1)


class TransformerEncoderLayer(Module):
    """Post-norm encoder layer: attention and feed-forward sublayers, each
    wrapped in residual + layer normalization. Acts on (..., tokens, dim)."""

    def __init__(self, dim: int, heads: int, rng, ff_mult: int = 2):
        super().__init__()
        self.heads = heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_mult * dim, rng)
        self.ff2 = Linear(ff_mult * dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        attn = self.out(attention(self.q(x), self.k(x), self.v(x), self.heads))
        x = self.norm1(x + attn)
        ff = self.ff2(relu(self.ff1(x)))
        return self.norm2(x + ff)


@dataclass
class FusionConfig:
    dim: int = 256
    heads: int = 8
    partition_mode: str = "motion"   # motion | uniform

    def validate(self) -> list[str]:
        errors = []
        if self.partition_mode not in ("motion", "uniform"):
            errors.append(f"partition_mode must be motion|uniform, got {self.partition_mode!r}")
        if self.dim % self.heads != 0:
            errors.append(f"fusion dim {self.dim} must be divisible by heads {self.heads}")
        return errors


class FusionBranch(Module):
    """(first stem map, first JSA-TC map, raw joints) -> (N, dim, 7)."""

    def __init__(self, c1: int, c2: int, cfg: FusionConfig, rng: np.random.Generator):
        super().__init__()
        problems = cfg.validate()
        if problems:
            raise ValueError("; ".join(problems))
        self.cfg = cfg
        self.entry = Linear(c1 + c2, cfg.dim, rng)
        self.layer = TransformerEncoderLayer(cfg.dim, cfg.heads, rng)

    def part_rows(self, joints: np.ndarray, h_feat: int) -> np.ndarray:
        n = joints.shape[0]
        if self.cfg.partition_mode == "uniform":
            return uniform_row_ranges(h_feat, n)
        return motion_row_ranges(neck_normalize(joints), h_feat)

    def forward(self, f_x: Tensor, f_y: Tensor, joints: np.ndarray) -> Tensor:
        rows = self.part_rows(joints, f_x.shape[3])
        tokens = cross_modal_tokens(f_x, f_y, rows)      # (N, C1+C2, T, 7)
        h = tokens.transpose(0, 2, 3, 1)                 # (N, T, 7, C1+C2)
        h = self.layer(self.entry(h))
        return h.transpose(0, 3, 1, 2).max(axis=2)       # (N, dim, 7)
