"""Silhouette branch: stem shapes, attention gates, GeM streams."""

import numpy as np
import pytest

from trigait.config import RunConfig
from trigait.gradcheck import model_param_gradcheck
from trigait.silhouette import SilhouetteBranch, SpatialRefine, max_pool_2x2
from trigait.tensor import Tensor


# channels, parts, reduction, dilations, gem_p_init
def tiny_cfg():
    return (2, 2, 4, 4), 2, 2, (1, 2, 3), 1.0


def mini_cfg():
    return (8, 16, 32, 32), 4, 4, (1, 2, 3), 1.0


def full_cfg():
    return (32, 64, 128, 128), 8, 16, (1, 2, 3), 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


class TestStem:
    def test_output_shape_full_scale(self):
        branch = SilhouetteBranch(*full_cfg(), rng(0))  # 64x64, channels up to 128
        x = Tensor(rng(1).uniform(0, 1, (1, 1, 3, 64, 64)))
        f, f_low = branch.stem_forward(x)
        assert f.shape == (1, 128, 3, 16, 16)
        assert f_low.shape == (1, 32, 3, 32, 32)

    def test_zero_input_finite(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(2))
        f, _ = branch.stem_forward(Tensor(np.zeros((2, 1, 3, 16, 16))))
        assert np.isfinite(f.data).all()

    def test_frame_order_matters(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(3))
        x = rng(4).uniform(0, 1, (1, 1, 4, 16, 16))
        f1, _ = branch.stem_forward(Tensor(x))
        f2, _ = branch.stem_forward(Tensor(x[:, :, ::-1].copy()))
        assert np.abs(f1.data - f2.data).max() > 1e-9

    def test_too_few_frames_rejected(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(5))
        with pytest.raises(ValueError):
            branch.stem_forward(Tensor(np.zeros((1, 1, 2, 16, 16))))

    def test_max_pool_2x2(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 1, 4, 4)
        out = max_pool_2x2(Tensor(x))
        np.testing.assert_array_equal(out.data[0, 0, 0], [[5, 7], [13, 15]])


class TestSpatialRefine:
    def test_zero_weights_give_half_gate(self):
        sr = SpatialRefine(4, 2, rng(6))
        for p in sr.parameters():
            p.data[...] = 0.0
        sr.bn.gamma.data[...] = 1.0  # affine identity
        x = Tensor(rng(7).uniform(-1, 1, (2, 4, 6, 6)))
        s = sr.attention(x)
        np.testing.assert_allclose(s.data, 0.5, atol=1e-12)
        out = sr(x)
        np.testing.assert_allclose(out.data, 1.5 * x.data, atol=1e-12)

    def test_zero_input_stays_zero(self):
        sr = SpatialRefine(4, 2, rng(8))
        out = sr(Tensor(np.zeros((1, 4, 6, 6))))
        np.testing.assert_allclose(out.data, 0.0, atol=0)

    def test_gate_bounds_on_nonnegative_input(self):
        sr = SpatialRefine(4, 2, rng(9))
        x = Tensor(rng(10).uniform(0, 1, (2, 4, 8, 8)))
        out = sr(x).data
        assert (out >= x.data - 1e-12).all()
        assert (out <= 2 * x.data + 1e-12).all()

    def test_attention_strictly_inside_unit_interval(self):
        sr = SpatialRefine(4, 2, rng(11))
        s = sr.attention(Tensor(rng(12).standard_normal((2, 4, 8, 8)))).data
        assert (s > 0).all() and (s < 1).all()

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError):
            SpatialRefine(4, 3, rng(13))


class TestAppearance:
    def test_strip_count(self):
        cfg = RunConfig()
        assert cfg.input_size // 4 // cfg.sil_parts == 2  # 8 strips of height 2 on 16 rows

    def test_zero_features_give_zero(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(14))
        a = branch.appearance_feature(Tensor(np.zeros((1, 4, 4, 4))))
        np.testing.assert_allclose(a.data, 0.0, atol=1e-12)

    def test_output_shape(self):
        branch = SilhouetteBranch(*mini_cfg(), rng(15))
        a = branch.appearance_feature(Tensor(rng(16).uniform(0, 1, (2, 32, 4, 4))))
        assert a.shape == (2, 32, 4)

    def test_indivisible_height_rejected(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(17))
        with pytest.raises(ValueError):
            branch.appearance_feature(Tensor(np.zeros((1, 4, 5, 4))))


class TestTemporal:
    def test_constant_time_input_equal_branch_outputs_interior(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(18))
        # share weights across the three dilated convs
        w = branch.temporal_convs[0].weight.data.copy()
        for tc in branch.temporal_convs:
            tc.weight.data[...] = w
        c = tiny_cfg()[0][-1]
        frame = rng(19).uniform(0, 1, (1, c, 1, 4))
        x = Tensor(np.repeat(frame, 9, axis=2))  # constant in time
        from trigait.tensor import stack

        f_t = stack([tc(x) for tc in branch.temporal_convs], axis=4).data
        interior = f_t[:, :, 3:6]  # frames beyond the largest dilation
        assert np.abs(interior[..., 0] - interior[..., 1]).max() < 1e-12
        assert np.abs(interior[..., 0] - interior[..., 2]).max() < 1e-12

    def test_zero_input_zero_motion(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(20))
        m = branch.temporal_feature(Tensor(np.zeros((1, 4, 5, 4, 4))))
        np.testing.assert_allclose(m.data, 0.0, atol=1e-12)

    def test_output_shape(self):
        branch = SilhouetteBranch(*mini_cfg(), rng(21))
        m = branch.temporal_feature(Tensor(rng(22).uniform(0, 1, (2, 32, 5, 4, 4))))
        assert m.shape == (2, 32, 4)

    def test_too_few_frames_rejected(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(23))
        with pytest.raises(ValueError):
            branch.temporal_feature(Tensor(np.zeros((1, 4, 4, 4, 4))))


class TestBranchForward:
    def test_output_shape_and_zero_input(self):
        branch = SilhouetteBranch(*mini_cfg(), rng(24))
        out, f_low = branch(Tensor(np.zeros((2, 1, 5, 16, 16))))
        assert out.shape == (2, 64, 4)
        assert f_low.shape == (2, 8, 5, 8, 8)
        assert np.isfinite(out.data).all()

    def test_full_scale_shape(self):
        branch = SilhouetteBranch(*full_cfg(), rng(25))
        out, _ = branch(Tensor(rng(26).uniform(0, 1, (1, 1, 5, 64, 64))))
        assert out.shape == (1, 256, 16)

    def test_appearance_invariant_to_post_stem_frame_permutation(self):
        branch = SilhouetteBranch(*tiny_cfg(), rng(27))
        f, _ = branch.stem_forward(Tensor(rng(28).uniform(0, 1, (1, 1, 5, 16, 16))))
        perm = [3, 0, 4, 1, 2]
        a1 = branch.appearance_feature(f.max(axis=2))
        a2 = branch.appearance_feature(Tensor(f.data[:, :, perm]).max(axis=2))
        np.testing.assert_allclose(a1.data, a2.data, atol=1e-12)

    def test_gradcheck_vs_finite_differences(self):
        # whole-branch check on a tiny configuration, params and input
        branch = SilhouetteBranch(*tiny_cfg(), rng(29))
        x = rng(30).uniform(0.05, 1.0, (1, 1, 5, 16, 16))
        err = model_param_gradcheck(
            branch, lambda xt: branch(xt)[0], [x], n_params=4, n_coords=6, seed=31
        )
        assert err < 1e-3
