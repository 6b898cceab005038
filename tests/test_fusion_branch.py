"""Fusion branch: normalization, part ranges, token generator, transformer."""

import numpy as np
import pytest

from trigait.checks import bruteforce_motion_rows
from trigait.fusion import (
    PARTS,
    FusionBranch,
    TransformerEncoderLayer,
    cross_modal_tokens,
    motion_ranges,
    motion_row_ranges,
    neck_normalize,
    uniform_partition_ranges,
    uniform_row_ranges,
)
from trigait.gradcheck import model_param_gradcheck
from trigait.synth import synth_subject, render_sequence
from trigait.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def walking_joints(n=1, t=6, seed=0):
    subj = synth_subject(seed)
    ske, _ = render_sequence(subj, "NM", 90, T=max(t, 2), seed=seed)
    joints = ske.joints[:t]
    return np.broadcast_to(joints, (n,) + joints.shape).copy()


class TestPartDefs:
    def test_parts_partition_all_joints(self):
        covered = sorted(i for _, idx in PARTS for i in idx)
        assert covered == list(range(17))
        assert len(PARTS) == 7


class TestNeckNormalize:
    def test_fixed_point(self):
        j = walking_joints(t=4, seed=1)[0]
        norm1 = neck_normalize(j)
        norm2 = neck_normalize(norm1)
        np.testing.assert_allclose(norm1, norm2, atol=1e-9)

    def test_scale_invariance(self):
        j = walking_joints(t=4, seed=2)[0]
        np.testing.assert_allclose(neck_normalize(j), neck_normalize(2.0 * j), atol=1e-9)

    def test_hand_made_half_scale(self):
        # shoulders at v=-2 relative to hips -> scale factor 1/2
        j = np.zeros((2, 17, 2))
        j[:, :, 0] = np.arange(17)  # distinct horizontals
        j[:, 5, 1] = j[:, 6, 1] = -2.0
        j[:, 11, 1] = j[:, 12, 1] = 0.0
        j[:, 11, 0] = j[:, 12, 0] = 0.0
        norm = neck_normalize(j)
        np.testing.assert_allclose(norm[:, 5, 1], -1.0, atol=1e-12)
        np.testing.assert_allclose(norm[:, 3, 0], 3.0 / 2.0, atol=1e-12)

    def test_neck_at_origin_vertical_one(self):
        j = walking_joints(t=5, seed=3)[0]
        norm = neck_normalize(j)
        neck_v = 0.5 * (norm[:, 5, 1] + norm[:, 6, 1])
        hip_v = 0.5 * (norm[:, 11, 1] + norm[:, 12, 1])
        np.testing.assert_allclose(np.abs(neck_v), 1.0, atol=1e-9)
        np.testing.assert_allclose(hip_v, 0.0, atol=1e-9)

    def test_degenerate_pose_rejected_with_frame(self):
        j = np.zeros((3, 17, 2))
        with pytest.raises(ValueError) as ei:
            neck_normalize(j)
        assert "frame" in str(ei.value)


class TestMotionRanges:
    def test_matches_bruteforce_loops(self):
        norm = neck_normalize(walking_joints(t=8, seed=4)[0])
        got = motion_ranges(norm, h_feat=16)
        want = bruteforce_motion_rows(norm, h_feat=16)
        assert [(r.h_f, r.h_e, r.row_lo, r.row_hi) for r in got] == want

    def test_static_skeleton_collapses(self):
        # one static pose with a single height per part: no motion, min == max
        pose = np.zeros((17, 2))
        pose[:, 0] = np.arange(17)
        heights = {0: -1.5, 1: -1.5, 2: -1.5, 3: -1.5, 4: -1.5,
                   5: -1.0, 6: -1.0, 7: -0.6, 8: -0.6, 9: -0.2, 10: -0.2,
                   11: 0.0, 12: 0.0, 13: 0.5, 14: 0.5, 15: 1.0, 16: 1.0}
        for j, v in heights.items():
            pose[j, 1] = v
        static = np.repeat(pose[None], 4, axis=0)
        got = motion_ranges(neck_normalize(static), h_feat=16)
        for r in got:
            assert r.h_f == r.h_e

    def test_whole_body_range_covers_rows(self):
        norm = neck_normalize(walking_joints(t=8, seed=6)[0])
        got = motion_ranges(norm, h_feat=16)
        assert min(r.row_lo for r in got) == 0
        assert max(r.row_hi for r in got) == 15

    def test_scale_invariance_end_to_end(self):
        j = walking_joints(t=6, seed=7)[0]
        a = motion_ranges(neck_normalize(j), 16)
        b = motion_ranges(neck_normalize(3.5 * j), 16)
        assert [(r.row_lo, r.row_hi) for r in a] == [(r.row_lo, r.row_hi) for r in b]


class TestUniformPartition:
    def test_even_split(self):
        bands = uniform_partition_ranges(14)
        assert [(r.row_hi - r.row_lo + 1) for r in bands] == [2] * 7

    def test_largest_remainder_top_down(self):
        bands = uniform_partition_ranges(16)
        assert [(r.row_hi - r.row_lo + 1) for r in bands] == [3, 3, 2, 2, 2, 2, 2]
        assert bands[0].row_lo == 0 and bands[-1].row_hi == 15

    def test_count(self):
        assert len(uniform_partition_ranges(16)) == 7


class TestCrossModalTokens:
    def test_shape_with_paper_channels(self):
        n, t = 2, 3
        f_x = Tensor(rng(8).uniform(0, 1, (n, 32, t, 32, 32)))
        f_y = Tensor(rng(9).standard_normal((n, 64, t, 17)))
        rows = uniform_row_ranges(32, n)
        tokens = cross_modal_tokens(f_x, f_y, rows)
        assert tokens.shape == (n, 96, t, 7)

    def test_zero_features_zero_tokens(self):
        tokens = cross_modal_tokens(
            Tensor(np.zeros((1, 4, 2, 8, 8))),
            Tensor(np.zeros((1, 4, 2, 17))),
            uniform_row_ranges(8, 1),
        )
        np.testing.assert_allclose(tokens.data, 0.0, atol=0)

    def test_constant_feature_gives_two_c(self):
        # max (c) + avg (c) over any support = 2c
        c = 0.7
        f_x = Tensor(np.full((1, 2, 2, 8, 4), c))
        f_y = Tensor(np.full((1, 3, 2, 17), c))
        rows = motion_row_ranges(neck_normalize(walking_joints(t=2, seed=10)), 8)
        tokens = cross_modal_tokens(f_x, f_y, rows)
        np.testing.assert_allclose(tokens.data, 2 * c, atol=1e-12)

    def test_matches_slice_bruteforce(self):
        n, t = 2, 3
        f_x = rng(11).uniform(0, 1, (n, 3, t, 16, 5))
        f_y = rng(12).standard_normal((n, 4, t, 17))
        rows = motion_row_ranges(neck_normalize(walking_joints(n=n, t=t, seed=13)), 16)
        rows[1] = rows[1][::-1]  # distinct ranges per sample
        tokens = cross_modal_tokens(Tensor(f_x), Tensor(f_y), rows).data
        for i in range(n):
            for p, (_, idx) in enumerate(PARTS):
                lo, hi = rows[i, p]
                xs = f_x[i, :, :, lo : hi + 1, :]
                xtok = xs.max(axis=(2, 3)) + xs.mean(axis=(2, 3))
                ys = f_y[i][:, :, list(idx)]
                ytok = ys.max(axis=2) + ys.mean(axis=2)
                np.testing.assert_allclose(tokens[i, :3, :, p], xtok, atol=1e-9)
                np.testing.assert_allclose(tokens[i, 3:, :, p], ytok, atol=1e-9)

    def test_gradcheck(self):
        from trigait.gradcheck import gradcheck

        rows = uniform_row_ranges(8, 1)
        err = gradcheck(
            lambda fx, fy: cross_modal_tokens(fx, fy, rows),
            [rng(14).uniform(0, 1, (1, 2, 2, 8, 3)), rng(15).standard_normal((1, 2, 2, 17))],
        )
        assert err < 1e-4

    def test_gradcheck_per_sample_overlapping_motion_rows(self):
        from trigait.gradcheck import gradcheck

        joints = np.concatenate([walking_joints(t=6, seed=31), walking_joints(t=6, seed=32)])
        rows = motion_row_ranges(neck_normalize(joints), 8)
        assert (rows[0] != rows[1]).any()
        h = np.arange(8)[:, None, None]
        assert ((h >= rows[..., 0]) & (h <= rows[..., 1])).sum(axis=2).max() > 1  # overlaps
        err = gradcheck(
            lambda fx, fy: cross_modal_tokens(fx, fy, rows),
            [rng(33).uniform(0, 1, (2, 2, 2, 8, 3)), rng(34).standard_normal((2, 2, 2, 17))],
        )
        assert err < 1e-4

    def test_max_ties_route_to_first_rowmajor_member(self):
        fx = np.zeros((1, 1, 1, 6, 3))
        fx[0, 0, 0, [1, 5]] = 9.0                       # larger, but outside rows 2-4
        fx[0, 0, 0, [2, 3, 4], [2, 0, 1]] = 5.0         # tied maxima inside
        fy = np.zeros((1, 1, 1, 17))
        fy[0, 0, 0, 5] = 9.0                            # a shoulder joint, outside the head
        fy[0, 0, 0, [1, 3]] = 5.0                       # tied head joints
        rows = np.array([[[0, 0], [0, 1], [1, 1], [2, 4], [3, 5], [4, 5], [5, 5]]])
        f_x, f_y = Tensor(fx, requires_grad=True), Tensor(fy, requires_grad=True)
        tokens = cross_modal_tokens(f_x, f_y, rows)     # (1, 2, 1, 7)
        (tokens[0, 0, 0, 3] + tokens[0, 1, 0, 0]).backward()
        gx = np.zeros((6, 3))
        gx[2:5] = 1.0 / 9.0
        gx[2, 2] += 1.0
        np.testing.assert_allclose(f_x.grad[0, 0, 0], gx, rtol=0, atol=1e-15)
        gy = np.zeros(17)
        gy[:5] = 0.2
        gy[1] += 1.0
        np.testing.assert_allclose(f_y.grad[0, 0, 0], gy, rtol=0, atol=1e-15)

    def test_empty_row_range_names_part(self):
        rows = uniform_row_ranges(8, 2)
        rows[1, 4] = (5, 4)
        with pytest.raises(ValueError, match="empty row range for part 4"):
            cross_modal_tokens(
                Tensor(np.zeros((2, 1, 1, 8, 2))), Tensor(np.zeros((2, 1, 1, 17))), rows
            )


class TestTransformerLayer:
    def test_token_permutation_equivariance(self):
        layer = TransformerEncoderLayer(8, heads=2, rng=rng(16))
        layer.eval()
        x = rng(17).standard_normal((2, 3, 7, 8))
        out1 = layer(Tensor(x)).data
        perm = [6, 0, 3, 1, 5, 2, 4]
        out2 = layer(Tensor(x[:, :, perm])).data
        np.testing.assert_allclose(out2, out1[:, :, perm], atol=1e-10)

    def test_zero_attention_out_projection_reduces_to_ff_path(self):
        layer = TransformerEncoderLayer(8, heads=2, rng=rng(18))
        layer.out.weight.data[...] = 0.0
        layer.out.bias.data[...] = 0.0
        x = Tensor(rng(19).standard_normal((1, 2, 7, 8)))
        got = layer(x).data
        h = layer.norm1(x)
        from trigait.tensor import relu

        expected = layer.norm2(h + layer.ff2(relu(layer.ff1(h)))).data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gradcheck(self):
        layer = TransformerEncoderLayer(6, heads=2, rng=rng(20))
        x = rng(21).uniform(-1, 1, (1, 2, 4, 6))
        err = model_param_gradcheck(layer, lambda xt: layer(xt), [x], n_params=5, n_coords=4)
        assert err < 1e-4


class TestFusionBranch:
    def test_output_shape_and_single_frame(self):
        # single frame: temporal max pool is the identity
        branch = FusionBranch(c1=3, c2=4, dim=16, heads=2, partition_mode="motion", rng=rng(22))
        joints = walking_joints(n=2, t=1, seed=23)
        f_x = Tensor(rng(24).uniform(0, 1, (2, 3, 1, 8, 8)))
        f_y = Tensor(rng(25).standard_normal((2, 4, 1, 17)))
        out = branch(f_x, f_y, joints)
        assert out.shape == (2, 16, 7)
        rows = branch.part_rows(joints, 8)
        tokens = cross_modal_tokens(f_x, f_y, rows)
        h = branch.layer(branch.entry(tokens.transpose(0, 2, 3, 1)))
        np.testing.assert_allclose(out.data, h.data[:, 0].transpose(0, 2, 1), atol=1e-12)

    def test_partition_modes_differ_on_moving_skeleton(self):
        joints = walking_joints(n=1, t=6, seed=26)
        motion_rows = motion_row_ranges(neck_normalize(joints), 8)
        uniform_rows = uniform_row_ranges(8, 1)
        assert (motion_rows != uniform_rows).any()

    def test_branch_gradcheck(self):
        branch = FusionBranch(c1=2, c2=2, dim=8, heads=2, partition_mode="motion", rng=rng(27))
        joints = walking_joints(n=1, t=3, seed=28)
        f_x = rng(29).uniform(0, 1, (1, 2, 3, 8, 4))
        f_y = rng(30).standard_normal((1, 2, 3, 17))
        err = model_param_gradcheck(
            branch,
            lambda fx, fy: branch(fx, fy, joints),
            [f_x, f_y],
            n_params=5,
            n_coords=4,
        )
        assert err < 1e-3
