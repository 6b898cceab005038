"""Self-tests of the benchmark at toy size.

    python3 -m pytest -q perfbench

They check that every metric BENCHMARK.json names is emitted, and that each
correctness check fires on a corrupted input.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import SPAN_METRICS, TARGETS, Tracer, conv_flop, graph_nodes  # noqa: E402
from trigait import checkpoint, data, evaluate, synth  # noqa: E402
from trigait.tensor import Tensor, conv  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TOY = {
    "train-mini": wl.Sizes(subjects=3, views=1, seqs_per_view=2, frames=6,
                           batch_subjects=3, batch_sequences=2),
    "eval-mini": wl.Sizes(subjects=3, views=2, seqs_per_view=8, frames=6, batch_subjects=3,
                          batch_sequences=2, setup_iterations=1),
    "synth-io": wl.Sizes(subjects=3, views=1, seqs_per_view=2, frames=6, batch_subjects=3,
                         batch_sequences=2),
}
NAMED = {
    "train-mini": {"train_seq_per_s", "train_step_ms_p50", "train_step_ms_p90", "train_loss_final"},
    "eval-mini": {"eval_seq_per_s", "eval_batch_ms_p50", "eval_batch_ms_p90", "rank1_mean_pct"},
    "synth-io": {"synth_seq_per_s", "load_seq_per_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "failed_frac"}


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted(workload, trace):
    rec = run.measure(workload, seed=3, seconds=0.0, trace=trace, sizes=TOY[workload], setup_repeats=2)
    assert rec["errors"] == []
    result = rec["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCH[kind]}
    for m in BENCH[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert NAMED[workload] | COMMON <= set(rec["named"])
    if trace:
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        assert all(calls.values()), calls
        unrecorded = [span for _, span, _, _ in SPAN_METRICS if not rec["tracer"].durations(span)]
        assert unrecorded == []


def test_unrecorded_span_is_not_measured():
    values = {name: v for name, (v, _) in Tracer().metrics().items()}
    assert all(values[metric] is None for metric, *_ in SPAN_METRICS)
    assert values["tensor.graph_nodes"] is None and values["tensor.self_ms"] is None


def test_same_seed_same_inputs(tmp_path):
    spec = wl.WORKLOADS["synth-io"]
    a = spec.window(spec.setup(tmp_path / "a", 5, TOY["synth-io"]), 0.0).fingerprint
    b = spec.window(spec.setup(tmp_path / "b", 5, TOY["synth-io"]), 0.0).fingerprint
    c = spec.window(spec.setup(tmp_path / "c", 6, TOY["synth-io"]), 0.0).fingerprint
    assert a == b and a != c


def _written_pair(root: Path):
    subject = synth.synth_subject(1)
    ske, sil = synth.render_sequence(subject, "NM", 18, 6, 2)
    ds = data.write_dataset(root, [(ske, sil)])
    return ds, ds.records()[0], ske, sil


def _flip_last_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


def test_roundtrip_check_fires_on_flipped_tgsl_byte(tmp_path):
    ds, rec, ske, sil = _written_pair(tmp_path)
    frames, joints = ds.load_pair(rec)
    assert wl.arrays_identical(frames, sil.frames) and wl.arrays_identical(joints, ske.joints)
    _flip_last_byte(tmp_path / f"{rec.stem}.tgsl")
    frames, _ = ds.load_pair(rec)
    assert not wl.arrays_identical(frames, sil.frames)


def test_roundtrip_check_fires_on_flipped_tgkt_byte(tmp_path):
    ds, rec, ske, _ = _written_pair(tmp_path)
    _flip_last_byte(tmp_path / f"{rec.stem}.tgkt")
    _, joints = ds.load_pair(rec)
    assert not wl.arrays_identical(joints, ske.joints)


def test_checkpoint_check_fires_on_flipped_byte(tmp_path, monkeypatch):
    state = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)}
    assert wl.checkpoint_roundtrip(tmp_path / "a.tgck", state)[2]
    save = checkpoint.save_checkpoint

    def corrupting_save(path, tensors):
        save(path, tensors)
        _flip_last_byte(Path(path))

    monkeypatch.setattr(checkpoint, "save_checkpoint", corrupting_save)
    assert not wl.checkpoint_roundtrip(tmp_path / "b.tgck", state)[2]


def test_reference_check_fires_on_perturbed_trajectory(tmp_path, monkeypatch):
    assert wl.reference_check(tmp_path / "ok")[1]
    ref = json.loads(wl.REFERENCE_PATH.read_text())
    ref["losses"][-1][2] *= 1.0 + 1e-8
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    monkeypatch.setattr(wl, "REFERENCE_PATH", bad)
    assert not wl.reference_check(tmp_path / "bad")[1]


def test_rank1_oracle_fires_on_wrong_cell():
    r = np.random.default_rng(0)
    n = 60
    emb = r.standard_normal((n, 8, 3))
    labels = r.integers(0, 5, n)
    views = np.array([0, 18, 36])[r.integers(0, 3, n)]
    conds = np.array(["NM", "BG", "CL"])[r.integers(0, 3, n)]
    gal, prb = np.arange(0, 30), np.arange(30, n)
    report = evaluate.rank1(emb[gal], labels[gal], views[gal], emb[prb], labels[prb],
                            views[prb], conds[prb])
    assert wl.rank1_matches_oracle(emb, labels, views, conds, gal, prb, report)[0]
    cell = np.argwhere(~np.isnan(report.rank1["BG"]))[0]
    report.rank1["BG"][tuple(cell)] += 0.5
    assert not wl.rank1_matches_oracle(emb, labels, views, conds, gal, prb, report)[0]


def test_graph_nodes_and_conv_flop_definitions():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = ((x * 2.0) + x).sum()      # mul, add, sum; the constant and x are leaves
    assert graph_nodes(loss) == 3
    w = Tensor(np.ones((4, 3, 3)))
    out = conv(Tensor(np.ones((2, 3, 10))), w)          # (2, 4, 8)
    assert conv_flop(w.shape, out.shape) == 2 * (2 * 4 * 8) * (3 * 3)


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_restores_every_target():
    before = {(m, a): _resolve(m, a) for _, m, a, _ in TARGETS}
    with Tracer().installed():
        assert all(_resolve(m, a) is not before[(m, a)] for (m, a) in before)
    assert all(_resolve(m, a) is before[(m, a)] for (m, a) in before)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
