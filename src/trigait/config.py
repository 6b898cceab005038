"""Run configuration: defaults, text-file parsing, validation, hashing.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Unknown keys are rejected and every validation problem is reported at once.
CLI flags override file values; the resolved config is embedded in every
checkpoint so evaluation rebuilds the exact network.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .fusion import FusionConfig
from .model import ModelConfig
from .silhouette import SilhouetteConfig
from .skeleton import SkeletonConfig


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

    def model_config(self, num_subjects: int) -> ModelConfig:
        r = self.resolved()
        return ModelConfig(
            silhouette=SilhouetteConfig(
                in_hw=r.input_size,
                stem_channels=tuple(r.sil_channels),
                parts=r.sil_parts,
                reduction=r.sil_reduction,
                dilations=tuple(r.sil_dilations),
                gem_p_init=r.gem_p_init,
            ),
            skeleton=SkeletonConfig(
                channels=tuple(r.ske_channels),
                heads=r.ske_heads,
                tc_kernel=r.tc_kernel,
            ),
            fusion=FusionConfig(
                dim=r.embed_dim, heads=r.fusion_heads, partition_mode=r.partition_mode
            ),
            num_subjects=num_subjects,
            margin=r.margin,
        )

    def validate(self) -> list[str]:
        errors = []
        r = self.resolved()
        for key in ("lr", "lr_after_drop", "margin"):
            if getattr(r, key) <= 0:
                errors.append(f"{key} must be positive, got {getattr(r, key)}")
        for key in (
            "iterations",
            "batch_subjects",
            "batch_sequences",
            "batch_frames",
            "log_every",
            "checkpoint_every",
            "embed_dim",
        ):
            if getattr(r, key) < 1:
                errors.append(f"{key} must be >= 1, got {getattr(r, key)}")
        if not 0 <= r.momentum < 1:
            errors.append(f"momentum must be in [0, 1), got {r.momentum}")
        if r.weight_decay < 0:
            errors.append(f"weight_decay must be >= 0, got {r.weight_decay}")
        if r.threads < 0:
            errors.append(f"threads must be >= 0, got {r.threads}")
        if r.eval_max_frames < 0:
            errors.append(f"eval_max_frames must be >= 0, got {r.eval_max_frames}")
        for key, preset in self.MINIATURE_OVERRIDES.items():
            given = getattr(self, key)
            if self.miniature and given not in (getattr(RunConfig, key), preset):
                errors.append(f"{key} = {given} conflicts with the miniature preset's {preset}")
        errors.extend(r.model_config(num_subjects=2).validate())
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
        """Digest of the identity-defining fields (architecture, optimizer,
        batch spec, seed); extending a run or changing logging cadence keeps
        checkpoints compatible."""
        lines = [
            line
            for line in self.to_text().splitlines()
            if line.split(" =")[0] not in self._NON_IDENTITY
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


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
        if key not in _FIELD_TYPES:
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
