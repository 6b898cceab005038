"""Library front door: GaitEmbedder(config, work_dir) and its input checks."""

import re

import numpy as np
import pytest

from trigait.cli import main
from trigait.config import RunConfig
from trigait.data import read_dataset
from trigait.estimator import GaitEmbedder

from test_synth_data import make_tiny_dataset


def fit_config(**kw):
    return RunConfig(miniature=True, batch_subjects=3, batch_sequences=2, **kw)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("est") / "d"
    make_tiny_dataset(root, n_subjects=3, views=(0, 90), seqs_per_view=2, T=32)
    return read_dataset(root)


@pytest.fixture(scope="module")
def fitted(dataset, tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("fitted")
    return GaitEmbedder(fit_config(iterations=2, seed=1), work_dir).fit(dataset)


class TestValidation:
    def test_frames_3d_promoted(self, fitted, dataset):
        frames, joints = dataset.load_pair(dataset.records()[0])
        out = fitted.transform((frames, joints))
        assert out.shape == (1, 64, 11)
        assert out.tobytes() == fitted.transform((frames[None], joints[None])).tobytes()

    def test_frames_value_range_enforced(self, fitted):
        with pytest.raises(ValueError, match=r"silhouettes: values outside \[0, 1\]"):
            fitted.transform((np.full((1, 2, 8, 8), 2.0), np.zeros((1, 2, 17, 2))))

    def test_joints_shape_enforced(self, fitted):
        with pytest.raises(ValueError) as ei:
            fitted.transform((np.zeros((2, 8, 8)), np.zeros((2, 16, 2))))
        assert "17" in str(ei.value)

    def test_nonfinite_rejected(self, fitted):
        bad = np.zeros((1, 2, 17, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="joints: non-finite values"):
            fitted.transform((np.zeros((1, 2, 8, 8)), bad))

    def test_paired_length_checked(self, fitted):
        with pytest.raises(ValueError, match="paired inputs disagree"):
            fitted.transform((np.zeros((1, 5, 8, 8)), np.zeros((1, 4, 17, 2))))

    @pytest.mark.parametrize(
        "frames_shape, joints_shape",
        [((0, 64, 64), (0, 17, 2)), ((10, 0, 0), (10, 17, 2))],
        ids=["no_frames", "no_pixels"],
    )
    def test_empty_frames_rejected(self, fitted, frames_shape, joints_shape):
        message = f"silhouettes: zero-size frames, got {(1, *frames_shape)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fitted.transform((np.zeros(frames_shape), np.zeros(joints_shape)))


class TestEstimatorParams:
    def test_transform_before_fit_raises(self, tmp_path):
        est = GaitEmbedder(fit_config(iterations=2), tmp_path / "w")
        with pytest.raises(ValueError):
            est.transform((np.zeros((1, 5, 64, 64)), np.zeros((1, 5, 17, 2))))


class TestEstimatorFit:
    def test_fit_transform_shapes(self, dataset, tmp_path):
        est = GaitEmbedder(fit_config(iterations=3, seed=1), tmp_path / "w")
        emb = est.fit_transform(dataset)
        assert emb.shape == (len(dataset), 64, 11)  # miniature: 64 ch, 4+7 parts
        assert np.isfinite(emb).all()

    def test_fit_transform_equals_transform(self, dataset, tmp_path):
        est = GaitEmbedder(fit_config(iterations=2, seed=1), tmp_path / "w")
        emb = est.fit_transform(dataset)
        pairs = [dataset.load_pair(r) for r in dataset.records()]
        want = est.transform(pairs)
        assert emb.shape == want.shape and emb.tobytes() == want.tobytes()

    def test_transform_accepts_single_pair(self, dataset, tmp_path):
        est = GaitEmbedder(fit_config(iterations=2, seed=1), tmp_path / "w")
        est.fit(dataset)
        frames, joints = dataset.load_pair(dataset.records()[0])
        out = est.transform((frames, joints))
        assert out.shape == (1, 64, 11)

    def test_transform_accepts_tuple_of_pairs(self, fitted, dataset):
        pairs = [dataset.load_pair(r) for r in dataset.records()[:2]]
        out = fitted.transform(tuple(pairs))
        assert out.shape == (2, 64, 11)
        assert out.tobytes() == fitted.transform(pairs).tobytes()

    def test_pair_of_nested_lists(self, fitted, dataset):
        frames, joints = dataset.load_pair(dataset.records()[0])
        want = fitted.transform((frames, joints)).tobytes()
        assert fitted.transform((frames.tolist(), joints.tolist())).tobytes() == want

    def test_malformed_pair_named(self, fitted, dataset):
        frames, joints = dataset.load_pair(dataset.records()[0])
        with pytest.raises(ValueError, match=re.escape("X[1]: expected a (frames, joints) pair")):
            fitted.transform([(frames, joints), (frames, joints, joints)])

    def test_fit_is_deterministic_in_seed(self, dataset, tmp_path):
        cfg = fit_config(iterations=2, seed=5)
        e1 = GaitEmbedder(cfg, tmp_path / "a").fit(dataset)
        e2 = GaitEmbedder(cfg, tmp_path / "b").fit(dataset)
        frames, joints = dataset.load_pair(dataset.records()[1])
        np.testing.assert_array_equal(
            e1.transform((frames, joints)), e2.transform((frames, joints))
        )

    def test_fit_is_cli_train(self, dataset, tmp_path):
        # the config's threads = 0, so the CLI pins no BLAS pool and writes
        # the same config text into the checkpoint as `fit` does
        cfg = fit_config(iterations=3, seed=2, log_every=1)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg.to_text())
        est = GaitEmbedder(cfg, tmp_path / "lib").fit(dataset)
        assert main(["train", "--data", str(dataset.root), "--out", str(tmp_path / "cli"),
                     "--config", str(cfg_path)]) == 0
        for name in ("model.tgck", "train_log.tsv"):
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
        assert est.checkpoint_path_ == tmp_path / "lib" / "model.tgck"
