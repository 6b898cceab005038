"""Self-contained property suite behind the `check` CLI command.

Each check raises AssertionError on failure; the runner prints one status
line per check plus a pass/fail summary and returns a process exit code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import RunConfig
from .fusion import PARTS, neck_normalize, part_rows
from .gradcheck import gradcheck, model_param_gradcheck
from .losses import triplet_ba_loss
from .model import TriGaitNet, preprocess_silhouettes
from .skeleton import JsaTcBlock
from .silhouette import SpatialRefine
from .synth import CONDITIONS, render_sequence, synth_subject
from .tensor import (
    Tensor,
    attention,
    conv,
    gem,
    linear,
    matmul,
    normalize,
    pairwise_part_distances,
    sigmoid,
    softmax,
)

CHECKS: list[tuple[str, str, callable]] = []


def check(group: str, name: str):
    def wrap(fn):
        CHECKS.append((group, name, fn))
        return fn

    return wrap


def _rng(seed=0):
    return np.random.default_rng(seed)


# -- gradient checks ----------------------------------------------------------


@check("grad", "conv 1d/2d/3d, dilated and 1x1 vs finite differences")
def _grad_conv():
    r = _rng(1)
    for xs, ws, dil, pad in (
        ((1, 2, 7), (3, 2, 3), 1, 1),
        ((2, 2, 6, 5), (3, 2, 3, 3), 1, 1),
        ((1, 1, 4, 5, 5), (2, 1, 3, 3, 3), 1, 1),
        ((2, 2, 7, 6), (3, 2, 3, 3), (2, 1), (2, 1)),
        ((2, 3, 4, 5), (2, 3, 1, 1), 1, 0),
    ):
        err = gradcheck(
            lambda x, w, b: conv(x, w, b, dilation=dil, padding=pad),
            [r.uniform(-1, 1, xs), r.uniform(-1, 1, ws), r.uniform(-1, 1, ws[0])],
            n_samples=12,
        )
        assert err < 1e-4, f"conv gradcheck err {err:.2e}"


@check("grad", "linear/batch_norm/normalize/softmax/sigmoid/gem/attention vs finite differences")
def _grad_core_ops():
    # normalize, attention and the 3-D linear draw from their own generators,
    # so r's inputs to the other ops do not shift
    r, n, a, f = _rng(2), _rng(17), _rng(18), _rng(19)
    checks = [
        (lambda x, w, b: linear(x, w, b),
         [r.uniform(-1, 1, (4, 3)), r.uniform(-1, 1, (3, 2)), r.uniform(-1, 1, 2)]),
        (lambda x: batch_norm_stats(x, (0, 2), 1e-5)[2], [r.uniform(-1, 1, (3, 2, 4))]),
        (lambda x, g, b: normalize(x, g, b, (0, 2), 1, 1e-5)[0],
         [n.uniform(-1, 1, (3, 2, 4)), n.uniform(0.5, 1.5, (1, 2, 1)).reshape(2),
          n.uniform(-1, 1, (1, 2, 1)).reshape(2)]),
        (lambda x: softmax(x, axis=1), [r.uniform(-2, 2, (3, 5))]),
        (lambda x: sigmoid(x), [r.uniform(-3, 3, (4, 4))]),
        (lambda x, p: gem(x, p, axis=1), [r.uniform(0.1, 2, (3, 6)), np.array(1.8)]),
        (lambda x: x.max(axis=(1,)), [r.uniform(-1, 1, (4, 6))]),
        (lambda x: x.mean(axis=(1,)), [r.uniform(-1, 1, (4, 6))]),
        (lambda q, k, v: attention(q, k, v, 2), [a.uniform(-1, 1, (2, 3, 5, 4)) for _ in "qkv"]),
        (lambda x, w, b: linear(x, w, b),
         [f.uniform(-1, 1, (2, 3, 4)), f.uniform(-1, 1, (4, 5)), f.uniform(-1, 1, 5)]),
    ]
    for fn, inputs in checks:
        err = gradcheck(fn, inputs, n_samples=12)
        assert err < 1e-4, f"gradcheck err {err:.2e} for {fn}"


@check("grad", "metric kernels vs finite differences")
def _grad_metric():
    r = _rng(3)
    err = gradcheck(lambda e: pairwise_part_distances(e), [r.uniform(-1, 1, (5, 3, 2))], n_samples=12)
    assert err < 1e-4, f"pairwise err {err:.2e}"
    labels = np.array([0, 0, 1, 1, 2, 2])

    def tri(e):
        loss, _ = triplet_ba_loss(e, labels, 0.4)
        return loss

    err = gradcheck(tri, [r.standard_normal((6, 3, 2))], n_samples=12)
    assert err < 1e-4, f"triplet err {err:.2e}"


@check("grad", "JSA-TC block vs finite differences")
def _grad_block():
    blk = JsaTcBlock(4, 4, heads=2, rng=_rng(4))
    x = _rng(5).uniform(-1, 1, (1, 4, 3, 4))
    err = model_param_gradcheck(blk, lambda xt: blk(xt), [x], n_params=5, n_coords=4)
    assert err < 1e-4, f"block err {err:.2e}"


# -- analytic invariants ------------------------------------------------------


@check("softmax", "rows sum to 1 and shift invariance within 1e-12")
def _softmax_invariants():
    x = _rng(6).standard_normal((7, 9)) * 10
    y = softmax(Tensor(x), axis=1).data
    assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-12
    y2 = softmax(Tensor(x + 57.3), axis=1).data
    assert np.abs(y - y2).max() < 1e-12
    assert ((y > 0) & (y <= 1)).all()


@check("sigmoid", "symmetry point, saturation, open range")
def _sigmoid_invariants():
    assert sigmoid(Tensor(0.0)).item() == 0.5
    assert abs(sigmoid(Tensor(30.0)).item() - 1.0) < 1e-9
    y = sigmoid(Tensor(_rng(7).standard_normal(200) * 5)).data
    assert (y > 0).all() and (y < 1).all()


@check("gem", "p=1 equals average within 1e-12; monotone in p")
def _gem_limits():
    x = _rng(8).uniform(0.05, 3.0, (4, 11))
    g1 = gem(Tensor(x), Tensor(1.0), axis=1).data
    assert np.abs(g1 - x.mean(axis=1)).max() < 1e-12
    prev = None
    for p in (1.0, 2.0, 4.0, 8.0):
        cur = gem(Tensor(x), Tensor(p), axis=1).data
        if prev is not None:
            assert (cur >= prev - 1e-12).all(), f"GeM not monotone at p={p}"
        prev = cur
    big = gem(Tensor(x), Tensor(64.0), axis=1).data
    assert (big <= x.max(axis=1) + 1e-9).all()


@check("jsa", "single joint passthrough, uniform attention symmetry")
def _jsa_cases():
    r = _rng(9)
    q = Tensor(r.standard_normal((1, 2, 1, 4)))
    k = Tensor(r.standard_normal((1, 2, 1, 4)))
    v = Tensor(r.standard_normal((1, 2, 1, 4)))
    out = attention(q, k, v, heads=2)
    assert np.abs(out.data - v.data).max() < 1e-12
    qc = Tensor(np.broadcast_to(r.standard_normal(4), (1, 1, 6, 4)).copy())
    kc = Tensor(np.broadcast_to(r.standard_normal(4), (1, 1, 6, 4)).copy())
    vv = r.standard_normal((1, 1, 6, 4))
    out = attention(qc, kc, Tensor(vv), heads=2)
    assert np.abs(out.data - vv.mean(axis=2, keepdims=True)).max() < 1e-12


@check("residual", "attention bypass identities")
def _residual_identities():
    sr = SpatialRefine(4, 2, _rng(10))
    x = _rng(11).uniform(-1, 1, (2, 4, 6, 6))
    gate = sr.attention(Tensor(x)).data
    assert ((gate > 0) & (gate < 1)).all()
    # forcing the gate to zero reduces the refine step to the identity
    forced = Tensor(x) + Tensor(x) * Tensor(np.zeros_like(gate))
    assert np.array_equal(forced.data, x)
    blk = JsaTcBlock(5, 5, heads=1, rng=_rng(12))
    for name, p in blk.named_parameters():
        if not name.startswith("bn"):
            p.data[...] = 0.0
    xb = _rng(13).standard_normal((1, 5, 4, 17))
    assert np.abs(blk(Tensor(xb)).data - xb).max() < 1e-12


# -- oracle equivalences (the test suite shares these oracles) -------------------


def attention_over_axis(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention on (..., K, C) tensors,
    composed from matmul, softmax and transposes: the oracle for the fused
    `attention` op."""
    *lead, kk, c = q.shape
    dk = c // heads
    lead = tuple(lead)
    nl = len(lead)

    def split(x):
        x = x.reshape(lead + (kk, heads, dk))
        perm = tuple(range(nl)) + (nl + 1, nl, nl + 2)
        return x.transpose(perm)  # (..., heads, K, dk)

    qh, kh, vh = split(q), split(k), split(v)
    scores = matmul(qh, kh.transpose(tuple(range(nl)) + (nl, nl + 2, nl + 1)))
    weights = softmax(scores * (1.0 / math.sqrt(dk)), axis=-1)
    out = matmul(weights, vh)  # (..., heads, K, dk)
    perm_back = tuple(range(nl)) + (nl + 1, nl, nl + 2)
    return out.transpose(perm_back).reshape(lead + (kk, c))


def batch_norm_stats(x: Tensor, axes: tuple[int, ...], eps: float):
    """Differentiable (mean, var, normalized) over `axes` with biased variance,
    composed from reductions and arithmetic: the oracle for the fused
    `normalize` op."""
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    xhat = centered / (var + eps).sqrt()
    return mu, var, xhat


def bruteforce_motion_rows(norm: np.ndarray, h_feat: int) -> list[tuple]:
    """(h_f, h_e, row_lo, row_hi) per part of neck-normalized (T, 17, 2)
    joints, from plain min/max loops over frames and the part's joints."""
    t_len = norm.shape[0]
    last = h_feat - 1
    v = norm[..., 1]
    vmin, vmax = v.min(), v.max()
    rows = []
    for _, idx in PARTS:
        hf = min(v[t, j] for t in range(t_len) for j in idx)
        he = max(v[t, j] for t in range(t_len) for j in idx)
        lo = int(np.clip(np.floor((hf - vmin) / (vmax - vmin) * last), 0, last))
        hi = int(np.clip(np.ceil((he - vmin) / (vmax - vmin) * last), 0, last))
        rows.append((hf, he, lo, max(hi, lo)))
    return rows


def bruteforce_batch_all(emb: np.ndarray, labels, margin: float) -> tuple[float, float]:
    """Batch-all triplet loss and active fraction of (N, C, P) embeddings by
    an exhaustive (anchor, positive, negative) loop per part."""
    n, _, parts = emb.shape
    per_part, active, valid = [], 0, 0
    for p in range(parts):
        terms = []
        for a in range(n):
            for i in range(n):
                if i == a or labels[i] != labels[a]:
                    continue
                for j in range(n):
                    if labels[j] == labels[a]:
                        continue
                    d_ap = np.linalg.norm(emb[a, :, p] - emb[i, :, p])
                    d_an = np.linalg.norm(emb[a, :, p] - emb[j, :, p])
                    terms.append(margin + d_ap - d_an)
        valid += len(terms)
        act = [x for x in terms if x > 0]
        active += len(act)
        per_part.append(sum(act) / len(act) if act else 0.0)
    return float(np.mean(per_part)), active / valid


def bruteforce_rank1(
    gal, gal_labels, gal_views, probe, probe_labels, probe_views, conds, views
) -> dict[str, np.ndarray]:
    """Rank-1 grid (probe view x gallery view) per condition by an exhaustive
    nearest-neighbour search under the summed per-part distance; NaN where a
    cell has no probe or no gallery sequence."""

    def dist(a, b):
        return sum(np.linalg.norm(a[:, p] - b[:, p]) for p in range(a.shape[1]))

    grids = {c: np.full((len(views), len(views)), np.nan) for c in CONDITIONS}
    cells = list(enumerate(views))
    for cond, (pi, pv), (gi, gv) in itertools.product(CONDITIONS, cells, cells):
        sel_p = [i for i in range(len(probe)) if conds[i] == cond and probe_views[i] == pv]
        sel_g = [j for j in range(len(gal)) if gal_views[j] == gv]
        if sel_p and sel_g:
            hits = sum(
                gal_labels[min(sel_g, key=lambda j: dist(probe[i], gal[j]))] == probe_labels[i]
                for i in sel_p
            )
            grids[cond][pi, gi] = hits / len(sel_p)
    return grids


@check("alignment", "motion ranges equal brute-force min/max loops")
def _alignment_oracle():
    for seed in range(3):
        subj = synth_subject(40 + seed)
        ske, _ = render_sequence(subj, "NM", 54, T=12, seed=seed)
        rows, extents = part_rows(ske.joints[None], 16, "motion")
        want = bruteforce_motion_rows(neck_normalize(ske.joints), h_feat=16)
        for (name, _), e, r, expected in zip(PARTS, extents[0].tolist(), rows[0].tolist(), want):
            assert (*e, *r) == expected, name
    bands, _ = part_rows(ske.joints[None], 16, "uniform")
    assert (bands[0, :, 1] - bands[0, :, 0] + 1).tolist() == [3, 3, 2, 2, 2, 2, 2]


@check("triplet", "batch-all loss equals exhaustive enumeration")
def _triplet_oracle():
    r = _rng(14)
    for _ in range(3):
        n = int(r.integers(6, 13))
        labels = r.integers(0, 3, n)
        while len(np.unique(labels)) < 2 or np.bincount(labels).max() < 2:
            labels = r.integers(0, 3, n)
        emb = r.standard_normal((n, 3, 4))
        loss, frac = triplet_ba_loss(Tensor(emb), labels, margin=0.25)
        expected, expected_frac = bruteforce_batch_all(emb, labels, 0.25)
        assert abs(loss.item() - expected) < 1e-9
        assert abs(frac - expected_frac) < 1e-12


@check("rank1", "rank-1 equals exhaustive nearest-neighbour oracle")
def _rank1_oracle():
    from .evaluate import rank1

    r = _rng(15)
    n_gal, n_probe = 120, 80
    gal = r.standard_normal((n_gal, 8, 3))
    probe = r.standard_normal((n_probe, 8, 3))
    gal_labels = r.integers(0, 10, n_gal)
    probe_labels = r.integers(0, 10, n_probe)
    views = np.array([0, 18, 36])
    gal_views = views[r.integers(0, 3, n_gal)]
    probe_views = views[r.integers(0, 3, n_probe)]
    conds = np.array(["NM", "BG", "CL"])[r.integers(0, 3, n_probe)]
    args = (gal, gal_labels, gal_views, probe, probe_labels, probe_views, conds)
    report = rank1(*args)
    for cond, want in bruteforce_rank1(*args, report.views).items():
        np.testing.assert_allclose(report.rank1[cond], want, rtol=0, atol=1e-12)


@check("rank1", "identical-view cells excluded from means")
def _rank1_exclusion():
    views = list(range(0, 198, 18))
    grid = np.ones((11, 11))
    from .evaluate import EvalReport

    rep = EvalReport(views=views, rank1={c: grid.copy() for c in ("NM", "BG", "CL")})
    for c in ("NM", "BG", "CL"):
        rep.rank1[c][np.diag_indices(11)] = 0.0  # poisoned diagonal must not leak
    assert rep.condition_mean("NM") == 1.0


# -- determinism ------------------------------------------------------------------


@check("determinism", "renders and forwards are bit-stable")
def _determinism():
    subj = synth_subject(99)
    k1, s1 = render_sequence(subj, "BG", 126, T=6, seed=5)
    k2, s2 = render_sequence(subj, "BG", 126, T=6, seed=5)
    assert np.array_equal(k1.joints, k2.joints) and np.array_equal(s1.frames, s2.frames)
    net = TriGaitNet(RunConfig(miniature=True), 2, _rng(16))
    net.eval()
    sil = preprocess_silhouettes(s1.frames[None], 16)
    e1 = net.forward(sil, k1.joints[None]).data
    e2 = net.forward(sil, k1.joints[None]).data
    assert np.array_equal(e1, e2)


def run_checks(only: str | None = None, out=print) -> int:
    """Run the registered checks; returns 0 if everything passed."""
    selected = [c for c in CHECKS if only is None or c[0] == only]
    if not selected:
        out(f"no checks in group {only!r}; groups: {sorted({g for g, _, _ in CHECKS})}")
        return 2
    passed = failed = 0
    for group, name, fn in selected:
        try:
            fn()
        except Exception as exc:  # report and continue
            failed += 1
            out(f"FAIL [{group}] {name}: {exc}")
        else:
            passed += 1
            out(f"PASS [{group}] {name}")
    out(f"{passed} passed, {failed} failed, {len(selected)} total")
    return 0 if failed == 0 else 1
