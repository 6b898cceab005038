"""Silhouette branch: 3D-conv stem plus appearance and motion streams.

The stem runs four 3x3x3 conv blocks (BN + leaky ReLU) with 2x2 spatial
max-pooling after the first two blocks, preserving the temporal extent. The
spatial stream refines the temporally max-pooled map with global and per-strip
attention and GeM-pools the width; the temporal stream widens the receptive
field with parallel dilated temporal convolutions, gates them with a learned
attention map, and max-pools time and scale away. Appearance and motion
features concatenate along channels into the branch output.
"""

from __future__ import annotations

import numpy as np

from .nn import BatchNorm, Conv, GeMPool, Module, ModuleList
from .tensor import Tensor, concat, leaky_relu, relu, sigmoid, stack

LEAK = 0.01


def max_pool_2x2(x: Tensor) -> Tensor:
    """Spatial 2x2/stride-2 max pool on (N, C, T, H, W)."""
    n, c, t, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"max_pool_2x2: odd spatial extent in {x.shape}")
    r = x.reshape(n, c, t, h // 2, 2, w // 2, 2)
    return r.max(axis=(4, 6))


class StemBlock(Module):
    def __init__(self, cin, cout, rng, pool: bool):
        super().__init__()
        self.conv = Conv(cin, cout, (3, 3, 3), rng, padding=1)
        self.bn = BatchNorm(cout)
        self.pool = pool

    def forward(self, x):
        y = leaky_relu(self.bn(self.conv(x)), LEAK)
        return max_pool_2x2(y) if self.pool else y


class SpatialRefine(Module):
    """Attention gate over one 2D map: squeeze channels, two dilated 3x3
    convs for context, expand to one channel, BN, sigmoid; the gate scales a
    residual copy of the input."""

    def __init__(self, channels: int, reduction: int, rng):
        super().__init__()
        if channels % reduction != 0:
            raise ValueError(
                f"spatial_refine: channels {channels} not divisible by reduction {reduction}"
            )
        mid = channels // reduction
        self.squeeze = Conv(channels, mid, (1, 1), rng)
        self.context1 = Conv(mid, mid, (3, 3), rng, dilation=2, padding=2)
        self.context2 = Conv(mid, mid, (3, 3), rng, dilation=2, padding=2)
        self.expand = Conv(mid, 1, (1, 1), rng)
        self.bn = BatchNorm(1)

    def attention(self, x: Tensor) -> Tensor:
        h = self.squeeze(x)
        h = self.context2(self.context1(h))
        return sigmoid(self.bn(self.expand(h)))

    def forward(self, x: Tensor) -> Tensor:
        s = self.attention(x)
        return x + x * s


class SilhouetteBranch(Module):
    """(N, 1, T, H, W) -> (N, 2C, H/4) appearance+motion feature. `reduction`
    squeezes channels inside each attention gate; `dilations` are the temporal
    convs' rates."""

    def __init__(
        self,
        channels: tuple,
        parts: int,
        reduction: int,
        dilations: tuple,
        gem_p_init: float,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.parts = parts             # horizontal strips in the spatial stream
        chans = (1,) + tuple(channels)
        self.blocks = ModuleList(
            [StemBlock(chans[i], chans[i + 1], rng, pool=i < 2) for i in range(len(channels))]
        )
        c = channels[-1]
        self.global_refine = SpatialRefine(c, reduction, rng)
        self.local_refines = ModuleList([SpatialRefine(c, reduction, rng) for _ in range(parts)])
        self.gem_appearance = GeMPool(axis=-1, p_init=gem_p_init)
        self.gem_temporal = GeMPool(axis=-1, p_init=gem_p_init)
        # bias-free so that zero features propagate to zero motion output
        self.temporal_convs = ModuleList(
            [
                Conv(c, c, (3, 1), rng, dilation=(d, 1), padding=(d, 0), bias=False)
                for d in dilations
            ]
        )
        self.mta_conv1 = Conv(c, c, (3, 3), rng, padding=1)
        self.mta_conv2 = Conv(c, c, (3, 3), rng, padding=1)

    # -- stem ---------------------------------------------------------------

    def stem_forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Run the conv stem; returns (final map, first-block map for fusion)."""
        if x.ndim != 5 or x.shape[1] != 1:
            raise ValueError(f"stem expects (N, 1, T, H, W), got {x.shape}")
        if x.shape[2] < 3:
            raise ValueError(f"stem needs T >= 3 frames, got {x.shape[2]}")
        first = None
        h = x
        for block in self.blocks:
            h = block(h)
            if first is None:
                first = h
        return h, first

    # -- spatial stream --------------------------------------------------------

    def appearance_feature(self, f_s: Tensor) -> Tensor:
        """(N, C, H, W) -> (N, C, H): global+local refined, GeM over width."""
        n_parts = self.parts
        h = f_s.shape[2]
        if h % n_parts != 0:
            raise ValueError(f"parts={n_parts} does not divide feature height {h}")
        strip = h // n_parts
        global_refined = self.global_refine(f_s)
        locals_ = [
            self.local_refines[i](f_s[:, :, i * strip : (i + 1) * strip, :])
            for i in range(n_parts)
        ]
        merged = global_refined + concat(locals_, axis=2)
        return self.gem_appearance(relu(merged))

    # -- temporal stream ---------------------------------------------------------

    def temporal_feature(self, f: Tensor) -> Tensor:
        """(N, C, T, H, W) -> (N, C, H) multi-scale motion feature."""
        if f.shape[2] < 5:
            raise ValueError(f"temporal stream needs T >= 5, got {f.shape[2]}")
        base = self.gem_temporal(relu(f))          # (N, C, T, H)
        f_t = stack([tc(base) for tc in self.temporal_convs], axis=4)  # (N,C,T,H,3)
        n, c, t, h, s = f_t.shape
        plane = f_t.reshape(n, c, t, h * s)
        s_t = sigmoid(self.mta_conv2(self.mta_conv1(plane))).reshape(n, c, t, h, s)
        gated = f_t * s_t
        return gated.max(axis=2).max(axis=3)       # pool time, then scale slots

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (Gait_sil (N, 2C, H'), first stem block map for fusion)."""
        f, f_low = self.stem_forward(x)
        f_s = f.max(axis=2)                        # temporal max pool
        a = self.appearance_feature(f_s)
        m = self.temporal_feature(f)
        return concat([a, m], axis=1), f_low
