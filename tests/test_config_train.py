"""Config parsing/validation and training-loop contracts."""

import re

import numpy as np
import pytest

from trigait.checkpoint import load_checkpoint, save_checkpoint
from trigait.config import RunConfig, load_config, parse_config_text
from trigait.data import read_dataset
from trigait.model import TriGaitNet
from trigait.train import LOG_HEADER, Trainer, load_training_checkpoint

from test_synth_data import make_tiny_dataset


def fast_config(**kw):
    base = dict(
        miniature=True,
        iterations=3,
        batch_subjects=3,
        batch_sequences=2,
        log_every=1,
        checkpoint_every=1000,
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "d"
    make_tiny_dataset(root, n_subjects=4, views=(0, 90), seqs_per_view=2, T=32)
    return read_dataset(root)


class TestConfig:
    def test_text_roundtrip(self):
        cfg = RunConfig(iterations=123, sil_channels=(4, 8, 16, 16), miniature=True)
        back = parse_config_text(cfg.to_text())
        assert back == cfg

    def test_file_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# training setup\n"
            "iterations = 500   # short run\n"
            "margin = 0.3\n"
            "\n"
            "partition_mode = uniform\n"
        )
        cfg = load_config(p)
        assert cfg.iterations == 500 and cfg.margin == 0.3
        assert cfg.partition_mode == "uniform"

    def test_unknown_keys_collected(self):
        with pytest.raises(ValueError) as ei:
            parse_config_text("nope = 1\nmargin = 0.2\nalso_bad = x\n")
        msg = str(ei.value)
        assert "nope" in msg and "also_bad" in msg

    def test_validation_collects_all_errors(self):
        cfg = RunConfig(lr=-1, margin=0, iterations=0, partition_mode="banana")
        problems = cfg.validate()
        assert len(problems) >= 4

    def test_bad_partition_mode_reported_once(self):
        problems = RunConfig(partition_mode="x").validate()
        assert len([p for p in problems if "partition_mode" in p]) == 1

    def test_miniature_conflicts_reported_per_key(self):
        problems = RunConfig(miniature=True, batch_frames=12, embed_dim=32).validate()
        assert problems == [
            "embed_dim = 32 conflicts with the miniature preset's 64",
            "batch_frames = 12 conflicts with the miniature preset's 5",
        ]
        assert RunConfig(miniature=True).resolved().validate() == []
        assert RunConfig(batch_frames=12, embed_dim=32).validate() == []

    def test_one_block_stem_rejected(self):
        # the stem's two 2x2 pools sit in blocks 0 and 1; one block leaves the
        # feature map twice the height the fusion branch is built for
        cfg = RunConfig(input_size=16, sil_channels=(8,), sil_parts=4, sil_reduction=4)
        assert cfg.validate() == ["stem_channels needs at least 2 blocks, got 1"]

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"input_size": 66}, "input size 66 must be divisible by 4"),
            ({"sil_parts": 3}, "parts=3 must divide the feature height 16"),
            ({"sil_reduction": 3}, "reduction=3 must divide channels 128"),
            ({"ske_heads": 3}, "channels (64, 64, 128, 256) must be divisible by heads 3"),
            ({"fusion_heads": 3}, "fusion dim 256 must be divisible by heads 3"),
            ({"partition_mode": "x"}, "partition_mode must be motion|uniform, got 'x'"),
        ],
        ids=["input_size", "sil_parts", "sil_reduction", "ske_heads", "fusion_heads",
             "partition_mode"],
    )
    def test_shape_rule_reported_once_and_raised_by_net(self, values, message):
        cfg = RunConfig(**values)
        assert cfg.validate().count(message) == 1
        with pytest.raises(ValueError, match=re.escape(message)):
            TriGaitNet(cfg, 4, np.random.default_rng(0))

    def test_net_needs_two_subjects(self):
        with pytest.raises(ValueError, match="num_subjects must be >= 2, got 1"):
            TriGaitNet(RunConfig(miniature=True), 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("input_size", 0, "input_size must be >= 1, got 0"),
            ("sil_parts", 0, "sil_parts must be >= 1, got 0"),
            ("sil_reduction", 0, "sil_reduction must be >= 1, got 0"),
            ("ske_heads", 0, "ske_heads must be >= 1, got 0"),
            ("fusion_heads", 0, "fusion_heads must be >= 1, got 0"),
            ("tc_kernel", 2, "tc_kernel must be odd and >= 1, got 2"),
            ("tc_kernel", -1, "tc_kernel must be odd and >= 1, got -1"),
            ("ske_channels", (0, 8), "ske_channels must be one or more integers >= 1, got (0, 8)"),
            ("batch_frames", 3, "batch_frames must be >= 5, got 3"),
            ("eval_max_frames", 3, "eval_max_frames must be 0 or >= 5, got 3"),
            ("eval_max_frames", -1, "eval_max_frames must be 0 or >= 5, got -1"),
        ],
        ids=["input_size", "sil_parts", "sil_reduction", "ske_heads", "fusion_heads",
             "tc_kernel_even", "tc_kernel_negative", "ske_channels", "batch_frames",
             "eval_max_frames", "eval_max_frames_negative"],
    )
    def test_bad_divisor_named_without_crash(self, key, value, message):
        assert message in RunConfig(**{key: value}).validate()

    def test_miniature_resolution(self):
        r = RunConfig(miniature=True).resolved()
        assert r.input_size == 16 and r.embed_dim == 64
        assert RunConfig().resolved().input_size == 64

    def test_hash_changes_with_values(self):
        assert RunConfig().hash_hex() != RunConfig(margin=0.25).hash_hex()

    def test_paper_defaults(self):
        cfg = RunConfig()
        assert cfg.sil_channels == (32, 64, 128, 128)
        assert cfg.ske_channels == (64, 64, 128, 256)
        assert cfg.sil_parts == 8 and cfg.sil_reduction == 16
        assert cfg.ske_heads == 8 and cfg.margin == 0.2
        assert cfg.lr == 1e-4 and cfg.lr_after_drop == 1e-5
        assert cfg.lr_drop_iteration == 30000 and cfg.iterations == 60000
        assert (cfg.batch_subjects, cfg.batch_sequences, cfg.batch_frames) == (8, 16, 30)


class TestTrainer:
    def test_smoke_losses_finite_and_logged(self, dataset, tmp_path):
        trainer = Trainer(dataset, fast_config(), tmp_path / "run")
        path = trainer.run()
        assert path.exists()
        lines = (tmp_path / "run" / "train_log.tsv").read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 4  # header + 3 logged iterations
        for line in lines[1:]:
            fields = line.split("\t")
            assert len(fields) == 6
            assert np.isfinite(float(fields[4]))

    def test_lr_schedule_drop(self, dataset, tmp_path):
        cfg = fast_config(iterations=4, lr_drop_iteration=2)
        trainer = Trainer(dataset, cfg, tmp_path / "run")
        seen = {}
        while trainer.iteration < 4:
            s = trainer.step()
            seen[s["iteration"]] = s["lr"]
        assert seen[0] == cfg.lr and seen[1] == cfg.lr
        assert seen[2] == cfg.lr_after_drop and seen[3] == cfg.lr_after_drop

    def test_deterministic_checkpoints(self, dataset, tmp_path):
        p1 = Trainer(dataset, fast_config(), tmp_path / "a").run()
        p2 = Trainer(dataset, fast_config(), tmp_path / "b").run()
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_continues_counter_and_matches_straight_run(self, dataset, tmp_path):
        straight = Trainer(dataset, fast_config(iterations=4), tmp_path / "s").run()
        half = Trainer(dataset, fast_config(iterations=2), tmp_path / "h")
        half_ck = half.run()
        resumed = Trainer(
            dataset, fast_config(iterations=4), tmp_path / "r", resume=half_ck
        )
        assert resumed.iteration == 2
        final = resumed.run()
        assert final.read_bytes() == straight.read_bytes()

    def test_resume_after_crash_matches_straight_run_bytes(self, dataset, tmp_path):
        cfg = fast_config(iterations=6, checkpoint_every=3)
        Trainer(dataset, cfg, tmp_path / "s").run()

        def crash_after_iteration_4(scalars):
            if scalars["iteration"] == 4:
                raise RuntimeError("killed")

        crashed = tmp_path / "c"
        with pytest.raises(RuntimeError, match="killed"):
            Trainer(dataset, cfg, crashed).run(progress=crash_after_iteration_4)
        resumed = Trainer(dataset, cfg, crashed, resume=crashed / "model.tgck")
        assert resumed.iteration == 3
        resumed.run()
        for name in ("train_log.tsv", "model.tgck"):
            assert (crashed / name).read_bytes() == (tmp_path / "s" / name).read_bytes()

    @pytest.mark.parametrize("text,message", [
        ("iter\tlr\n", "train_log.tsv: not a training log"),
        (LOG_HEADER + "\n0\t0.1\nx\t0.1\n", "train_log.tsv:3: bad iteration 'x'"),
    ])
    def test_resume_rejects_malformed_log(self, dataset, tmp_path, text, message):
        trainer = Trainer(dataset, fast_config(), tmp_path / "run")
        trainer.iteration = 2
        trainer.log_path.write_text(text)
        with pytest.raises(ValueError, match=message):
            trainer.run()

    def test_failed_save_keeps_previous_checkpoint(self, dataset, tmp_path, monkeypatch):
        trainer = Trainer(dataset, fast_config(), tmp_path / "run")
        path = trainer.save()
        before = path.read_bytes()

        def half_save(target, tensors):
            save_checkpoint(target, tensors)
            with open(target, "r+b") as fh:
                fh.truncate(len(before) // 2)
            raise OSError("disk full")

        monkeypatch.setattr("trigait.train.save_checkpoint", half_save)
        with pytest.raises(OSError):
            trainer.save()
        assert path.read_bytes() == before
        assert load_training_checkpoint(path).iteration == 0
        assert sorted(p.name for p in path.parent.iterdir()) == ["model.tgck"]

    def test_config_mismatch_rejected_with_both_hashes(self, dataset, tmp_path):
        ck = Trainer(dataset, fast_config(), tmp_path / "run").run()
        other = fast_config(margin=0.4)
        with pytest.raises(ValueError) as ei:
            load_training_checkpoint(ck, expect_config=other)
        msg = str(ei.value)
        assert fast_config().hash_hex() in msg and other.hash_hex() in msg
        # the miniature preset already sets input_size 16: the same network
        assert load_training_checkpoint(ck, expect_config=fast_config(input_size=16)).iteration == 3

    def test_checkpoint_roundtrip_restores_net(self, dataset, tmp_path):
        trainer = Trainer(dataset, fast_config(), tmp_path / "run")
        path = trainer.run()
        loaded = load_training_checkpoint(path)
        assert loaded.iteration == 3
        for (n1, p1), (n2, p2) in zip(
            trainer.net.named_parameters(), loaded.net.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.parametrize("tamper,message", [
        (lambda t: t.update({"opt.no.such.param": np.zeros(3)}),
         "'opt.no.such.param' names no parameter"),
        (lambda t: t.update({"opt.classifier.bias": np.append(t["opt.classifier.bias"], 0.0)}),
         r"'opt.classifier.bias' has shape \(5,\), its parameter \(4,\)"),
    ], ids=["unknown-record", "misshapen-record"])
    def test_momentum_record_that_does_not_fit_rejected(self, dataset, tmp_path, tamper, message):
        tensors = load_checkpoint(Trainer(dataset, fast_config(iterations=1), tmp_path / "run").run())
        assert tensors["opt.classifier.bias"].shape == (4,)
        tamper(tensors)
        bad = tmp_path / "tampered.tgck"
        save_checkpoint(bad, tensors)
        with pytest.raises(ValueError, match=re.escape(str(bad)) + ": momentum record " + message):
            load_training_checkpoint(bad)

    def test_invalid_config_message_lists_problems(self, dataset, tmp_path):
        with pytest.raises(ValueError) as ei:
            Trainer(dataset, fast_config(lr=-1, margin=0), tmp_path / "x")
        assert "lr" in str(ei.value) and "margin" in str(ei.value)

    def test_overfit_four_subjects_reduces_triplet_loss(self, dataset, tmp_path):
        cfg = fast_config(iterations=25, lr=3e-3, batch_subjects=4, batch_sequences=4)
        trainer = Trainer(dataset, cfg, tmp_path / "overfit")
        first = trainer.step()["l_tri"]
        last = None
        while trainer.iteration < 25:
            last = trainer.step()["l_tri"]
        assert last < first
