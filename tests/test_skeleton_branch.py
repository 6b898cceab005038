"""Skeleton branch: multi-input channels, JSA attention, block stacking."""

import numpy as np
import pytest

from trigait.gradcheck import gradcheck, model_param_gradcheck
from trigait.skeleton import (
    JointSelfAttention,
    JsaTcBlock,
    SkeletonBranch,
    adaptive_avg_pool_axis,
    multi_input,
)
from trigait.tensor import Tensor, attention


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_cfg():
    return (8, 8, 8, 16), 2, 3  # channels, heads, tc_kernel


class TestMultiInput:
    def test_static_pose_zero_motion(self):
        pose = rng(0).uniform(0, 64, (1, 17, 2))
        seq = np.repeat(pose, 6, axis=0)
        feats = multi_input(seq)
        assert feats.shape == (1, 10, 6, 17)
        np.testing.assert_allclose(feats[0, 2:6], 0.0, atol=0)

    def test_translation_leaves_motion_and_bones_unchanged(self):
        seq = rng(1).uniform(0, 64, (5, 17, 2))
        f1 = multi_input(seq)
        f2 = multi_input(seq + 13.7)
        np.testing.assert_allclose(f1[0, 2:], f2[0, 2:], atol=1e-9)
        assert np.abs(f1[0, :2] - f2[0, :2]).max() > 1.0  # absolute channels move

    def test_bone_direction_unit_norm(self):
        seq = rng(2).uniform(0, 64, (4, 17, 2))
        feats = multi_input(seq)
        norms = np.sqrt(feats[0, 8] ** 2 + feats[0, 9] ** 2)  # (T, K)
        np.testing.assert_allclose(norms[:, 1:], 1.0, atol=1e-9)  # non-root joints

    def test_motion_channels_match_differences(self):
        seq = rng(3).uniform(0, 64, (5, 17, 2))
        feats = multi_input(seq)
        np.testing.assert_allclose(
            feats[0, 2, :-1], (seq[1:] - seq[:-1])[..., 0], atol=0
        )
        np.testing.assert_allclose(
            feats[0, 4, :-2], (seq[2:] - seq[:-2])[..., 0], atol=0
        )

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            multi_input(np.zeros((2, 17, 2)))


class TestAttention:
    def test_single_joint_passthrough(self):
        # softmax over one element is 1, so output is exactly v
        q = Tensor(rng(4).standard_normal((1, 3, 1, 4)))
        k = Tensor(rng(5).standard_normal((1, 3, 1, 4)))
        v = Tensor(rng(6).standard_normal((1, 3, 1, 4)))
        out = attention(q, k, v, heads=2)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_identical_joints_give_mean_of_values(self):
        one_q = rng(7).standard_normal(4)
        one_k = rng(8).standard_normal(4)
        v = rng(9).standard_normal((1, 1, 5, 4))
        q = Tensor(np.broadcast_to(one_q, (1, 1, 5, 4)).copy())
        k = Tensor(np.broadcast_to(one_k, (1, 1, 5, 4)).copy())
        out = attention(q, k, Tensor(v), heads=2)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(v.mean(axis=2, keepdims=True), v.shape), atol=1e-12
        )

    def test_two_joint_scalar_case(self):
        # d_k = 1: q = [1, 0], k = [1, 0], v = [[2], [4]]
        q = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1))
        k = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1))
        v = Tensor(np.array([2.0, 4.0]).reshape(1, 2, 1))
        out = attention(q, k, v, heads=1)
        w = np.exp([1.0, 0.0])
        w = w / w.sum()
        expected = w[0] * 2.0 + w[1] * 4.0  # 2.5379...
        assert abs(out.data[0, 0, 0] - expected) < 1e-12
        assert abs(expected - 2.53788) < 1e-4

    def test_rows_sum_to_one(self):
        from trigait.tensor import matmul, softmax

        q = rng(10).standard_normal((2, 3, 2, 17, 4))
        k = rng(11).standard_normal((2, 3, 2, 17, 4))
        scores = matmul(Tensor(q), Tensor(k).transpose(0, 1, 2, 4, 3))
        w = softmax(scores * 0.5, axis=-1)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)


class TestJsa:
    def test_frame_locality(self):
        jsa = JointSelfAttention(6, 8, heads=2, rng=rng(12))
        x = rng(13).standard_normal((1, 6, 4, 17))
        out1 = jsa(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, 2, :] += 5.0  # perturb frame 2 only
        out2 = jsa(Tensor(x2)).data
        assert np.abs(out1[:, :, 2] - out2[:, :, 2]).max() > 1e-6
        for t in (0, 1, 3):
            np.testing.assert_allclose(out1[:, :, t], out2[:, :, t], atol=1e-12)

    def test_output_shape(self):
        jsa = JointSelfAttention(10, 16, heads=4, rng=rng(14))
        out = jsa(Tensor(rng(15).standard_normal((2, 10, 3, 17))))
        assert out.shape == (2, 16, 3, 17)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            JointSelfAttention(10, 10, heads=4, rng=rng(16))


class TestJsaTcBlock:
    def test_zero_weights_identity_residual(self):
        blk = JsaTcBlock(6, 6, heads=2, rng=rng(17))
        for name, p in blk.named_parameters():
            if not name.startswith("bn"):
                p.data[...] = 0.0
        x = rng(18).standard_normal((2, 6, 4, 17))
        out = blk(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_channel_rise_block1_shape(self):
        blk = JsaTcBlock(10, 64, heads=8, rng=rng(19))
        out = blk(Tensor(rng(20).standard_normal((1, 10, 5, 17))))
        assert out.shape == (1, 64, 5, 17)

    def test_frame_permutation_commutes_when_tc_disabled(self):
        blk = JsaTcBlock(6, 6, heads=2, rng=rng(21))
        blk.tc.weight.data[...] = 0.0
        blk.tc.bias.data[...] = 0.0
        x = rng(22).standard_normal((1, 6, 5, 17))
        perm = [4, 2, 0, 1, 3]
        out1 = blk(Tensor(x)).data
        out2 = blk(Tensor(x[:, :, perm])).data
        np.testing.assert_allclose(out2, out1[:, :, perm], atol=1e-10)

    def test_gradcheck_miniature(self):
        # 3 frames, 4 joints
        blk = JsaTcBlock(4, 4, heads=2, rng=rng(23))
        x = rng(24).uniform(-1, 1, (1, 4, 3, 4))
        err = model_param_gradcheck(blk, lambda xt: blk(xt), [x], n_params=6, n_coords=5)
        assert err < 1e-4


class TestAdaptivePool:
    def test_17_to_16_overlapping_pairs(self):
        x = rng(25).standard_normal((1, 3, 17))
        out = adaptive_avg_pool_axis(Tensor(x), 16).data
        for i in range(16):
            np.testing.assert_allclose(out[:, :, i], x[:, :, i : i + 2].mean(axis=2), atol=1e-12)

    def test_identity_when_sizes_match(self):
        x = rng(26).standard_normal((2, 3, 5))
        out = adaptive_avg_pool_axis(Tensor(x), 5).data
        np.testing.assert_allclose(out, x, atol=0)

    @pytest.mark.parametrize("out_size", [4, 16])
    def test_gradcheck(self, out_size):
        err = gradcheck(
            lambda x: adaptive_avg_pool_axis(x, out_size), [rng(29).standard_normal((2, 3, 17))]
        )
        assert err < 1e-4


class TestSkeletonBranch:
    def test_output_shape(self):
        branch = SkeletonBranch((64, 64, 128, 256), 8, 3, 16, rng(27))
        joints = rng(28).uniform(0, 64, (2, 5, 17, 2))
        gait, f_low = branch(joints)
        assert gait.shape == (2, 256, 16)
        assert f_low.shape == (2, 64, 5, 17)

    def test_zero_input_finite(self):
        branch = SkeletonBranch(*tiny_cfg(), 4, rng(29))
        gait, _ = branch(np.zeros((1, 4, 17, 2)))
        assert np.isfinite(gait.data).all()

    def test_frame_permutation_invariance_with_tc_zeroed(self):
        # with TC disabled every stage is frame-local, so the temporal max pool
        # erases frame order; check on the block stack itself
        branch = SkeletonBranch(*tiny_cfg(), 4, rng(30))
        for blk in branch.blocks:
            blk.tc.weight.data[...] = 0.0
            blk.tc.bias.data[...] = 0.0
        x = rng(31).standard_normal((1, 10, 6, 17))
        perm = [5, 3, 1, 0, 2, 4]

        def stack_forward(arr):
            h = branch.input_bn(Tensor(arr))
            for blk in branch.blocks:
                h = blk(h)
            return h.max(axis=2).data

        g1 = stack_forward(x)
        g2 = stack_forward(x[:, :, perm])
        np.testing.assert_allclose(g1, g2, atol=1e-10)

    def test_branch_gradcheck(self):
        branch = SkeletonBranch(*tiny_cfg(), 4, rng(32))
        joints = rng(33).uniform(0, 64, (1, 5, 17, 2))
        err = model_param_gradcheck(
            branch, lambda: branch(joints)[0], [], n_params=6, n_coords=4
        )
        assert err < 1e-3
