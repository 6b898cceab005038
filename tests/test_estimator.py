"""Sklearn-style estimator facade and input validation."""

import numpy as np
import pytest

from trigait.data import read_dataset
from trigait.estimator import GaitEmbedder
from trigait.validation import (
    check_joints,
    check_paired,
    check_silhouette_frames,
)

from test_synth_data import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("est") / "d"
    make_tiny_dataset(root, n_subjects=3, views=(0, 90), seqs_per_view=2, T=32)
    return read_dataset(root)


class TestValidation:
    def test_frames_3d_promoted(self):
        out = check_silhouette_frames(np.zeros((4, 8, 8), dtype=np.uint8))
        assert out.shape == (1, 4, 8, 8)

    def test_frames_value_range_enforced(self):
        with pytest.raises(ValueError):
            check_silhouette_frames(np.full((1, 2, 8, 8), 2.0))

    def test_joints_shape_enforced(self):
        with pytest.raises(ValueError) as ei:
            check_joints(np.zeros((2, 16, 2)))
        assert "17" in str(ei.value)

    def test_nonfinite_rejected(self):
        bad = np.zeros((1, 2, 17, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            check_joints(bad)

    def test_paired_length_checked(self):
        with pytest.raises(ValueError):
            check_paired(np.zeros((1, 5, 8, 8)), np.zeros((1, 4, 17, 2)))


class TestEstimatorParams:
    def test_get_params_round_trip(self):
        est = GaitEmbedder(iterations=7, lr=0.01, seed=3)
        params = est.get_params()
        clone = GaitEmbedder(**params)
        assert clone.get_params() == params

    def test_set_params_chains_and_updates(self):
        est = GaitEmbedder()
        out = est.set_params(margin=0.5, iterations=12)
        assert out is est
        assert est.margin == 0.5 and est.iterations == 12

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError) as ei:
            GaitEmbedder().set_params(banana=1)
        assert "banana" in str(ei.value)

    def test_transform_before_fit_raises(self):
        with pytest.raises(ValueError):
            GaitEmbedder().transform((np.zeros((1, 5, 64, 64)), np.zeros((1, 5, 17, 2))))


class TestEstimatorFit:
    def test_fit_transform_shapes(self, dataset, tmp_path):
        est = GaitEmbedder(
            iterations=3, batch_subjects=3, batch_sequences=2, seed=1,
            work_dir=str(tmp_path / "w"),
        )
        emb = est.fit_transform(dataset)
        assert emb.shape == (len(dataset), 64, 11)  # miniature: 64 ch, 4+7 parts
        assert np.isfinite(emb).all()

    def test_fit_transform_equals_transform(self, dataset, tmp_path):
        est = GaitEmbedder(
            iterations=2, batch_subjects=3, batch_sequences=2, seed=1,
            work_dir=str(tmp_path / "w"),
        )
        emb = est.fit_transform(dataset)
        pairs = [dataset.load_pair(r) for r in dataset.records()]
        want = est.transform(pairs)
        assert emb.shape == want.shape and emb.tobytes() == want.tobytes()

    def test_transform_accepts_single_pair(self, dataset, tmp_path):
        est = GaitEmbedder(
            iterations=2, batch_subjects=3, batch_sequences=2, seed=1,
            work_dir=str(tmp_path / "w"),
        )
        est.fit(dataset)
        frames, joints = dataset.load_pair(dataset.records()[0])
        out = est.transform((frames, joints))
        assert out.shape == (1, 64, 11)

    def test_fit_is_deterministic_in_seed(self, dataset, tmp_path):
        kw = dict(iterations=2, batch_subjects=3, batch_sequences=2, seed=5)
        e1 = GaitEmbedder(work_dir=str(tmp_path / "a"), **kw).fit(dataset)
        e2 = GaitEmbedder(work_dir=str(tmp_path / "b"), **kw).fit(dataset)
        frames, joints = dataset.load_pair(dataset.records()[1])
        np.testing.assert_array_equal(
            e1.transform((frames, joints)), e2.transform((frames, joints))
        )
