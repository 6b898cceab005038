"""CLI contracts: subcommands, determinism, exit codes, help texts."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from trigait.cli import _config_from_args, build_parser, main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    code = run_cli(
        "synth", "--out", str(root), "--subjects", "3", "--views", "2",
        "--seqs-per-view", "10", "--frames", "32", "--seed", "11",
    )
    assert code == 0
    return root


class TestSynth:
    def test_sequence_count_and_conditions(self, small_dataset):
        from trigait.data import read_dataset

        ds = read_dataset(small_dataset)
        assert len(ds) == 3 * 2 * 10
        recs = ds.records()
        per_view = {}
        for r in recs:
            if r.subject == 0 and r.view == recs[0].view:
                per_view[r.condition] = per_view.get(r.condition, 0) + 1
        assert per_view == {"NM": 6, "BG": 2, "CL": 2}

    def test_deterministic_bytes(self, tmp_path):
        args = ["--subjects", "2", "--views", "2", "--seqs-per-view", "3",
                "--frames", "30", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", str(a), *args) == 0
        assert run_cli("synth", "--out", str(b), *args) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_too_few_subjects_rejected(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "x"), "--subjects", "1") == 1

    def test_too_few_frames_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("synth", "--out", str(out), "--subjects", "2", "--frames", "4") == 1
        assert "temporal stream needs T >= 5" in capsys.readouterr().err
        assert not out.exists()

    def test_derived_count_formula(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("synth", "--out", str(out), "--subjects", "4", "--views", "11",
                       "--seqs-per-view", "10", "--frames", "30", "--seed", "1") == 0
        from trigait.data import read_dataset

        assert len(read_dataset(out)) == 440


class TestTrainEval:
    def test_train_eval_roundtrip(self, small_dataset, tmp_path):
        run = tmp_path / "run"
        code = run_cli(
            "train", "--data", str(small_dataset), "--out", str(run),
            "--iterations", "3", "--miniature", "--batch-subjects", "3",
            "--batch-sequences", "2", "--log-every", "1", "--seed", "2",
        )
        assert code == 0
        assert (run / "model.tgck").exists()
        log_lines = (run / "train_log.tsv").read_text().splitlines()
        assert len(log_lines) == 4

        out = tmp_path / "eval"
        ranges = tmp_path / "ranges.tsv"
        code = run_cli(
            "eval", "--data", str(small_dataset), "--checkpoint", str(run / "model.tgck"),
            "--out", str(out), "--dump-ranges", str(ranges),
        )
        assert code == 0
        assert (out / "report.tsv").exists() and (out / "report.md").exists()
        header = ranges.read_text().splitlines()[0]
        assert header == "stem\tpart\th_f\th_e\trow_lo\trow_hi"

    @pytest.mark.parametrize("mode,cap", [("motion", 0), ("uniform", 0), ("motion", 5)])
    def test_dump_ranges_match_model_rows(self, small_dataset, tmp_path, mode, cap):
        """The dumped rows are the rows the model pools, frame cap included."""
        from trigait.data import read_dataset
        from trigait.model import preprocess_silhouettes
        from trigait.tensor import Tensor, no_grad
        from trigait.train import load_training_checkpoint

        run, ranges = tmp_path / "run", tmp_path / "ranges.tsv"
        assert run_cli(
            "train", "--data", str(small_dataset), "--out", str(run), "--iterations", "1",
            "--miniature", "--partition-mode", mode, "--batch-subjects", "3",
            "--batch-sequences", "2", "--seed", "2", "--eval-max-frames", str(cap),
        ) == 0
        assert run_cli(
            "eval", "--data", str(small_dataset), "--checkpoint", str(run / "model.tgck"),
            "--out", str(tmp_path / "e"), "--dump-ranges", str(ranges),
        ) == 0
        dumped = {}
        for line in ranges.read_text().splitlines()[1:]:
            stem, _, _, _, lo, hi = line.split("\t")
            dumped.setdefault(stem, []).append([int(lo), int(hi)])

        net = load_training_checkpoint(run / "model.tgck").net.eval()
        ds = read_dataset(small_dataset)
        frames, _ = ds.load_pair(ds.records()[0])
        sil = preprocess_silhouettes(frames[None], 16)
        with no_grad():
            h_feat = net.silhouette(Tensor(sil[:, None]))[1].shape[3]  # first stem map rows
        assert len(dumped) == len(ds)
        for rec in ds.records():
            joints = ds.load_pair(rec)[1][None, : cap or None]
            assert dumped[rec.stem] == net.fusion.part_rows(joints, h_feat)[0].tolist()

    def test_eval_rejects_short_checkpoint_header(self, small_dataset, tmp_path):
        short = tmp_path / "short.tgck"
        short.write_bytes(b"TGCK\x01\x00")  # good magic, 6 of the header's 12 bytes
        proc = subprocess.run(
            [sys.executable, "-m", "trigait.cli", "eval", "--data", str(small_dataset),
             "--checkpoint", str(short), "--out", str(tmp_path / "e")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {short}: ")
        assert "Traceback" not in proc.stderr

    def test_uniform_partition_mode_wiring(self, small_dataset, tmp_path):
        run = tmp_path / "up"
        code = run_cli(
            "train", "--data", str(small_dataset), "--out", str(run),
            "--iterations", "2", "--miniature", "--partition-mode", "uniform",
            "--batch-subjects", "3", "--batch-sequences", "2", "--seed", "2",
        )
        assert code == 0
        from trigait.train import load_training_checkpoint

        loaded = load_training_checkpoint(run / "model.tgck")
        assert loaded.config.partition_mode == "uniform"

    def test_resume_continues_counter(self, small_dataset, tmp_path):
        run = tmp_path / "resume"
        base = ["--data", str(small_dataset), "--out", str(run), "--miniature",
                "--batch-subjects", "3", "--batch-sequences", "2", "--seed", "4"]
        assert run_cli("train", *base, "--iterations", "2") == 0
        assert run_cli("train", *base, "--iterations", "4",
                       "--resume", str(run / "model.tgck")) == 0
        from trigait.train import load_training_checkpoint

        assert load_training_checkpoint(run / "model.tgck").iteration == 4

    def test_eval_config_mismatch_rejected(self, small_dataset, tmp_path):
        run = tmp_path / "mm"
        assert run_cli(
            "train", "--data", str(small_dataset), "--out", str(run),
            "--iterations", "2", "--miniature", "--batch-subjects", "3",
            "--batch-sequences", "2", "--seed", "2",
        ) == 0
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text("margin = 0.4\nminiature = true\n")
        code = run_cli(
            "eval", "--data", str(small_dataset), "--checkpoint", str(run / "model.tgck"),
            "--out", str(tmp_path / "e"), "--config", str(other_cfg),
        )
        assert code == 1

    def test_eval_rejects_checkpoint_without_training_metadata(
        self, small_dataset, tmp_path, capsys
    ):
        from trigait.checkpoint import save_checkpoint

        bare = tmp_path / "bare.tgck"
        save_checkpoint(bare, {"model.w": np.zeros(2)})
        code = run_cli("eval", "--data", str(small_dataset), "--checkpoint", str(bare),
                       "--out", str(tmp_path / "e"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(bare) in err and "'__meta__.config_text'" in err

    def test_eval_warns_about_conditions_without_probes(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        assert run_cli("synth", "--out", str(data), "--subjects", "3", "--views", "2",
                       "--seqs-per-view", "6", "--frames", "30", "--seed", "3") == 0
        assert run_cli("train", "--data", str(data), "--out", str(run), "--iterations", "1",
                       "--miniature", "--batch-subjects", "3", "--batch-sequences", "2") == 0
        capsys.readouterr()
        assert run_cli("eval", "--data", str(data), "--checkpoint", str(run / "model.tgck"),
                       "--out", str(tmp_path / "e")) == 0
        captured = capsys.readouterr()
        assert "no probes for NM;" in captured.err
        assert "NM nan" in captured.out and "Mean nan" not in captured.out

    def test_miniature_conflict_rejected(self, small_dataset, tmp_path, capsys):
        assert run_cli("train", "--data", str(small_dataset), "--out", str(tmp_path / "r"),
                       "--miniature", "--batch-frames", "12") == 1
        err = capsys.readouterr().err
        assert "batch_frames = 12 conflicts with the miniature preset's 5" in err

    @pytest.mark.parametrize(
        "line",
        ["sil_parts = 0", "sil_reduction = 0", "ske_heads = 0", "fusion_heads = 0",
         "input_size = 0", "tc_kernel = 2"],
    )
    def test_zero_or_even_divisor_rejected(self, small_dataset, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        code = run_cli("train", "--data", str(small_dataset), "--out", str(tmp_path / "o"),
                       "--config", str(bad), "--iterations", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and line.split(" =")[0] in err and "Traceback" not in err

    def test_bad_dataset_path_nonzero(self, tmp_path):
        assert run_cli("train", "--data", str(tmp_path / "none"),
                       "--out", str(tmp_path / "o"), "--iterations", "1") == 1

    def test_config_validation_lists_all_errors(self, small_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lr = -1\nmargin = 0\n")
        code = run_cli("train", "--data", str(small_dataset),
                       "--out", str(tmp_path / "o"), "--config", str(bad))
        assert code == 1
        err = capsys.readouterr().err
        assert "lr" in err and "margin" in err


class TestCheck:
    def test_fresh_build_passes_all_checks(self, capsys):
        assert run_cli("check") == 0
        out = capsys.readouterr().out
        assert "0 failed" in out and "FAIL" not in out

    def test_only_gem_group(self, capsys):
        assert run_cli("check", "--only", "gem") == 0
        out = capsys.readouterr().out
        assert "PASS [gem]" in out
        assert "1 passed, 0 failed" in out

    def test_unknown_group(self):
        assert run_cli("check", "--only", "nonsense") == 2

    def test_summary_counts(self, capsys):
        assert run_cli("check", "--only", "softmax") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].endswith("total")


class TestMisc:
    def test_help_on_every_subcommand(self, capsys):
        for sub in ("synth", "train", "eval", "check"):
            with pytest.raises(SystemExit) as ei:
                build_parser().parse_args([sub, "--help"])
            assert ei.value.code == 0
            text = capsys.readouterr().out
            assert "--threads" in text
            assert ("--seed" in text) == (sub in ("synth", "train"))

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGAIT_SEED", "77")
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--subjects", "2", "--views", "2", "--seqs-per-view", "3", "--frames", "30"]
        assert run_cli("synth", "--out", str(a), *args) == 0
        assert run_cli("synth", "--out", str(b), *args, "--seed", "77") == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_cli_import_leaves_numpy_unloaded(self):
        # `--threads` sets the BLAS pool size, which only works before numpy loads
        probe = "import sys, trigait.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSeedPrecedence:
    def train_config(self, tmp_path, *flags, config_text=None):
        argv = ["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o")]
        if config_text is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config_text)
            argv += ["--config", str(path)]
        return _config_from_args(build_parser().parse_args(argv + list(flags)))

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRIGAIT_SEED", "abc")
        args = ["--subjects", "2", "--views", "1", "--seqs-per-view", "1", "--frames", "30"]
        assert run_cli("synth", "--out", str(tmp_path / "a"), *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "TRIGAIT_SEED" in err and "'abc'" in err
        with pytest.raises(ValueError, match="TRIGAIT_SEED"):
            self.train_config(tmp_path)

    def test_comment_mentioning_seed_does_not_hide_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGAIT_SEED", "5")
        cfg = self.train_config(tmp_path, config_text="# the seed comes from the env\nlr = 0.01\n")
        assert cfg.seed == 5 and cfg.lr == 0.01

    def test_flag_then_file_then_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGAIT_SEED", "5")
        assert self.train_config(tmp_path).seed == 5
        assert self.train_config(tmp_path, config_text="seed = 9\n").seed == 9
        assert self.train_config(tmp_path, "--seed", "3", config_text="seed = 9\n").seed == 3
        monkeypatch.delenv("TRIGAIT_SEED")
        assert self.train_config(tmp_path).seed == 0

    def test_config_file_read_once_and_closed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGAIT_SEED", "5")
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.train_config(tmp_path, config_text="margin = 0.3\n")
        assert opened.count(str(tmp_path / "run.cfg")) == 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
