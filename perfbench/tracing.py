"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the `trigait` modules from outside the
program: it replaces each attribute with a wrapper while `installed()` is
active and restores the original on exit. Each call records one span (name,
start, end, parent, failed). Spans stay in memory until `write()`.

A span's layer is the part of its name before the first dot; the layers are
the repository's modules.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path

# (span name, module, attribute path, other modules that imported the name)
TARGETS = (
    ("tensor.backward", "trigait.tensor", "Tensor.backward", ()),
    ("nn.conv_fwd", "trigait.nn", "Conv.forward", ()),
    ("nn.batchnorm_fwd", "trigait.nn", "BatchNorm.forward", ()),
    ("nn.layernorm_fwd", "trigait.nn", "LayerNorm.forward", ()),
    ("nn.linear_fwd", "trigait.nn", "Linear.forward", ()),
    ("silhouette.fwd", "trigait.silhouette", "SilhouetteBranch.forward", ()),
    ("skeleton.fwd", "trigait.skeleton", "SkeletonBranch.forward", ()),
    ("fusion.fwd", "trigait.fusion", "FusionBranch.forward", ()),
    ("model.fwd", "trigait.model", "TriGaitNet.forward", ()),
    ("model.assembler_fwd", "trigait.model", "GaitAssembler.forward", ()),
    ("model.preprocess", "trigait.model", "preprocess_silhouettes", ("trigait.train",)),
    ("losses.fwd", "trigait.model", "TriGaitNet.loss", ()),
    ("optim.step", "trigait.optim", "SGD.step", ()),
    ("train.step", "trigait.train", "Trainer.step", ()),
    ("data.sample_batch", "trigait.data", "sample_batch", ("trigait.train",)),
    ("data.load_pair", "trigait.data", "GaitDataset.load_pair", ()),
    ("data.read_dataset", "trigait.data", "read_dataset", ()),
    ("data.write", "trigait.data", "write_silhouette", ()),
    ("data.write", "trigait.data", "write_keypoints", ()),
    ("synth.render", "trigait.synth", "render_sequence", ()),
    ("checkpoint.save", "trigait.checkpoint", "save_checkpoint", ("trigait.train",)),
    ("checkpoint.load", "trigait.checkpoint", "load_checkpoint", ("trigait.train",)),
    ("evaluate.embed_all", "trigait.evaluate", "embed_all", ()),
    ("evaluate.rank1", "trigait.evaluate", "rank1", ()),
)

# Per-layer metrics read from span durations: (metric, span, unit, calls per
# unit). The value is the median over units; a unit is one call, except that
# one written sequence is one .tgsl plus one .tgkt write.
SPAN_METRICS = (
    ("tensor.backward_ms", "tensor.backward", "ms", 1),
    ("nn.conv_fwd_ms", "nn.conv_fwd", "ms", 1),
    ("nn.batchnorm_fwd_ms", "nn.batchnorm_fwd", "ms", 1),
    ("nn.layernorm_fwd_ms", "nn.layernorm_fwd", "ms", 1),
    ("nn.linear_fwd_ms", "nn.linear_fwd", "ms", 1),
    ("silhouette.fwd_ms", "silhouette.fwd", "ms", 1),
    ("skeleton.fwd_ms", "skeleton.fwd", "ms", 1),
    ("fusion.fwd_ms", "fusion.fwd", "ms", 1),
    ("model.assembler_fwd_ms", "model.assembler_fwd", "ms", 1),
    ("model.preprocess_ms", "model.preprocess", "ms", 1),
    ("losses.fwd_ms", "losses.fwd", "ms", 1),
    ("optim.step_ms", "optim.step", "ms", 1),
    ("data.sample_batch_ms", "data.sample_batch", "ms", 1),
    ("data.load_pair_us", "data.load_pair", "us", 1),
    ("data.write_us", "data.write", "us", 2),
    ("synth.render_ms", "synth.render", "ms", 1),
    ("checkpoint.save_ms", "checkpoint.save", "ms", 1),
    ("checkpoint.load_ms", "checkpoint.load", "ms", 1),
    ("evaluate.embed_all_s", "evaluate.embed_all", "s", 1),
    ("evaluate.rank1_ms", "evaluate.rank1", "ms", 1),
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

LAYERS = (
    "tensor", "nn", "silhouette", "skeleton", "fusion", "model", "losses",
    "optim", "train", "evaluate", "data", "synth", "checkpoint",
)


def graph_nodes(loss) -> int:
    """The one definition of `tensor.graph_nodes`: the number of distinct
    tensors reachable from the loss through `_parents` that carry a backward
    function, i.e. the nodes `Tensor._result` created with gradients on.
    Leaves (parameters, inputs, constants) are not counted."""
    seen = {id(loss)}
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            count += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


def conv_flop(weight_shape, out_shape) -> int:
    """The one definition of `nn.conv_flop` for one conv call, computed from
    shapes: 2 x multiply-adds = 2 * out.size * Cin * prod(kernel). Bias adds
    are not counted."""
    return 2 * math.prod(out_shape) * math.prod(weight_shape[1:])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, failed]
        self._stack: list[int] = []
        self.graph_nodes: list[int] = []    # per TriGaitNet.loss call
        self.conv_flop: list[int] = []      # per TriGaitNet.forward call
        self.checkpoint_bytes: list[int] = []   # per checkpoint save or load
        self._conv_acc = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            self._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name, args, result):
        """Counts taken at span boundaries, outside the span's own time."""
        if name == "nn.conv_fwd":
            self._conv_acc += conv_flop(args[0].weight.shape, result.shape)
        elif name == "model.fwd":
            self.conv_flop.append(self._conv_acc)
            self._conv_acc = 0
        elif name == "losses.fwd":
            self.graph_nodes.append(graph_nodes(result[0]))
        elif name in ("checkpoint.save", "checkpoint.load"):
            self.checkpoint_bytes.append(os.path.getsize(args[0]))

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        restore = []
        try:
            for name, module, attr, importers in TARGETS:
                owner_name, _, fn_name = attr.rpartition(".")
                mod = importlib.import_module(module)
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, fn_name)
                wrapped = self._wrap(name, original)
                holders = [owner] + [importlib.import_module(m) for m in importers]
                for holder in holders:
                    restore.append((holder, fn_name, getattr(holder, fn_name)))
                    setattr(holder, fn_name, wrapped)
            yield self
        finally:
            for holder, fn_name, original in reversed(restore):
                setattr(holder, fn_name, original)

    # -- aggregation -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, failures and mean self time per call (s; None
        for a layer with no calls)."""
        own = self.self_times()
        out = {layer: {"calls": 0, "failures": 0, "self_s": 0.0} for layer in LAYERS}
        for s, t in zip(self.spans, own):
            st = out[s[0].split(".", 1)[0]]
            st["calls"] += 1
            st["failures"] += int(s[4])
            st["self_s"] += t
        for st in out.values():
            st["self_s"] = st["self_s"] / st["calls"] if st["calls"] else None
        return out

    def metrics(self) -> dict[str, tuple[float | None, str]]:
        """Every per-layer metric as name -> (value, unit). The value is None
        when nothing was recorded for it, so the run reports it as not
        measured instead of as zero."""
        out = {}
        for metric, span, unit, per in SPAN_METRICS:
            d = self.durations(span)
            units = [sum(d[i : i + per]) for i in range(0, len(d) - per + 1, per)]
            out[metric] = (SCALE[unit] * statistics.median(units) if units else None, unit)
        for metric, values, unit in (
            ("tensor.graph_nodes", self.graph_nodes, "count"),
            ("nn.conv_flop", self.conv_flop, "flop"),
            ("checkpoint.bytes", self.checkpoint_bytes, "B"),
        ):
            out[metric] = (float(statistics.median(values)) if values else None, unit)
        for layer, st in self.layer_stats().items():
            self_s = st["self_s"]
            out[f"{layer}.self_ms"] = (None if self_s is None else 1e3 * self_s, "ms")
            out[f"{layer}.calls"] = (st["calls"], "count")
            out[f"{layer}.failures"] = (st["failures"], "count")
        return out

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": a, "end": b, "parent": p, "failed": f}
            for n, a, b, p, f in self.spans
        ]
        Path(path).write_text(json.dumps({"spans": rows}))
