"""Run configuration, the one home of every setting: defaults, text-file
parsing, validation of the run and the network shapes alike, hashing.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Unknown keys are rejected and every validation problem is reported at once.
CLI flags override file values; the resolved config is embedded in every
checkpoint so evaluation rebuilds the exact network.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

# fewest frames the silhouette temporal stream takes; shorter clips are rejected
MIN_FRAMES = 5


@dataclass
class RunConfig:
    # model shapes
    input_size: int = 64
    sil_channels: tuple = (32, 64, 128, 128)
    sil_parts: int = 8
    sil_reduction: int = 16
    sil_dilations: tuple = (1, 2, 3)
    gem_p_init: float = 1.0
    ske_channels: tuple = (64, 64, 128, 256)
    ske_heads: int = 8
    tc_kernel: int = 3
    fusion_heads: int = 8
    embed_dim: int = 256
    # training
    margin: float = 0.2
    lr: float = 1e-4
    lr_drop_iteration: int = 30000
    lr_after_drop: float = 1e-5
    momentum: float = 0.9
    weight_decay: float = 5e-4
    iterations: int = 60000
    batch_subjects: int = 8
    batch_sequences: int = 16
    batch_frames: int = 30
    log_every: int = 50
    checkpoint_every: int = 5000
    # artifact knobs
    seed: int = 0
    threads: int = 0               # 1 = fully deterministic mode
    partition_mode: str = "motion"  # motion | uniform
    miniature: bool = False
    eval_max_frames: int = 0       # 0 = embed whole sequences

    MINIATURE_OVERRIDES = {
        "input_size": 16,
        "sil_channels": (8, 16, 32, 32),
        "sil_parts": 4,
        "sil_reduction": 4,
        "ske_channels": (16, 16, 32, 64),
        "ske_heads": 4,
        "fusion_heads": 4,
        "embed_dim": 64,
        "batch_frames": 5,
    }

    def resolved(self) -> "RunConfig":
        """Apply the miniature shape set when the flag is on."""
        if not self.miniature:
            return self
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(self.MINIATURE_OVERRIDES)
        values["miniature"] = True
        return RunConfig(**values)

    def validate(self) -> list[str]:
        """Every problem with the run and the network shapes, checked on the
        resolved values; divisors are checked to be >= 1 before any modulo."""
        errors = []
        r = self.resolved()
        for key in ("lr", "lr_after_drop", "margin"):
            if getattr(r, key) <= 0:
                errors.append(f"{key} must be positive, got {getattr(r, key)}")
        for key in (
            "iterations",
            "batch_subjects",
            "batch_sequences",
            "log_every",
            "checkpoint_every",
            "embed_dim",
            "input_size",
            "sil_parts",
            "sil_reduction",
            "ske_heads",
            "fusion_heads",
        ):
            if getattr(r, key) < 1:
                errors.append(f"{key} must be >= 1, got {getattr(r, key)}")
        for key in ("sil_channels", "sil_dilations", "ske_channels"):
            values = tuple(getattr(r, key))
            if not values or min(values) < 1:
                errors.append(f"{key} must be one or more integers >= 1, got {values}")
        if r.tc_kernel < 1 or r.tc_kernel % 2 == 0:
            # an even kernel shortens the time axis and breaks the residual sum
            errors.append(f"tc_kernel must be odd and >= 1, got {r.tc_kernel}")
        if not 0 <= r.momentum < 1:
            errors.append(f"momentum must be in [0, 1), got {r.momentum}")
        if r.weight_decay < 0:
            errors.append(f"weight_decay must be >= 0, got {r.weight_decay}")
        if r.threads < 0:
            errors.append(f"threads must be >= 0, got {r.threads}")
        if r.batch_frames < MIN_FRAMES:
            errors.append(f"batch_frames must be >= {MIN_FRAMES}, got {r.batch_frames}")
        if r.eval_max_frames != 0 and r.eval_max_frames < MIN_FRAMES:
            errors.append(f"eval_max_frames must be 0 or >= {MIN_FRAMES}, got {r.eval_max_frames}")
        for key, preset in self.MINIATURE_OVERRIDES.items():
            given = getattr(self, key)
            if self.miniature and given not in (getattr(RunConfig, key), preset):
                errors.append(f"{key} = {given} conflicts with the miniature preset's {preset}")
        if len(r.sil_channels) < 2:
            # blocks 0 and 1 apply the two 2x2 poolings behind input_size // 4
            errors.append(f"stem_channels needs at least 2 blocks, got {len(r.sil_channels)}")
        if r.input_size % 4 != 0:
            errors.append(f"input size {r.input_size} must be divisible by 4")
        feat_hw = r.input_size // 4
        if r.sil_parts >= 1 and feat_hw % r.sil_parts != 0:
            errors.append(f"parts={r.sil_parts} must divide the feature height {feat_hw}")
        if r.sil_channels and r.sil_reduction >= 1 and r.sil_channels[-1] % r.sil_reduction:
            errors.append(
                f"reduction={r.sil_reduction} must divide channels {r.sil_channels[-1]}"
            )
        if r.ske_heads >= 1 and any(c % r.ske_heads for c in r.ske_channels):
            errors.append(
                f"channels {tuple(r.ske_channels)} must be divisible by heads {r.ske_heads}"
            )
        if r.partition_mode not in ("motion", "uniform"):
            errors.append(f"partition_mode must be motion|uniform, got {r.partition_mode!r}")
        if r.fusion_heads >= 1 and r.embed_dim % r.fusion_heads != 0:
            errors.append(f"fusion dim {r.embed_dim} must be divisible by heads {r.fusion_heads}")
        return errors

    # -- text round trip ------------------------------------------------------

    # operational knobs that do not change what the weights mean
    _NON_IDENTITY = ("iterations", "log_every", "checkpoint_every", "threads", "eval_max_frames")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def hash_hex(self) -> str:
        """Digest of the identity-defining resolved fields (architecture,
        optimizer, batch spec, seed): configs that build the same network
        match, and extending a run or changing logging cadence keeps
        checkpoints compatible."""
        lines = [
            line
            for line in self.resolved().to_text().splitlines()
            if line.split(" =")[0] not in self._NON_IDENTITY
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# the keys a config file or a `trigait train` flag may set
FIELD_NAMES = frozenset(f.name for f in fields(RunConfig))


def _parse_value(key: str, raw: str):
    default = getattr(RunConfig(), key)
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, tuple):
        return tuple(int(x) for x in raw.split(","))
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_values(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into the values they set; collects every
    problem before failing."""
    values = {}
    errors = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{ln}: expected 'key = value', got {line!r}")
            continue
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in FIELD_NAMES:
            errors.append(f"{source}:{ln}: unknown key {key!r}")
            continue
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            errors.append(f"{source}:{ln}: {exc}")
    if errors:
        raise ValueError("config errors:\n  " + "\n  ".join(errors))
    return values


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    return RunConfig(**parse_config_values(text, source))


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))
