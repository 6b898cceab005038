"""Synthetic walker generation and dataset persistence/batching."""

import hashlib

import numpy as np
import pytest

from trigait.checkpoint import load_checkpoint, save_checkpoint
from trigait.data import (
    read_dataset,
    read_keypoints,
    read_silhouette_frames,
    sample_batch,
    write_dataset,
    write_keypoints,
    write_silhouette,
)
from trigait.synth import (
    NUM_JOINTS,
    PARENTS,
    render_sequence,
    synth_subject,
)


class TestSubject:
    def test_deterministic_in_seed(self):
        a, b = synth_subject(123), synth_subject(123)
        assert a.limb_lengths == b.limb_lengths
        assert a.gait_frequency == b.gait_frequency
        np.testing.assert_array_equal(a.phase_offsets, b.phase_offsets)

    def test_distinct_seeds_differ(self):
        a, b = synth_subject(1), synth_subject(2)
        assert a.limb_lengths != b.limb_lengths

    def test_positive_lengths_and_frequency_range(self):
        for seed in range(20):
            s = synth_subject(seed)
            assert all(v > 0 for v in s.limb_lengths.values())
            assert 0.01 < s.gait_frequency < 0.5

    def test_parent_map_is_a_tree_rooted_at_nose(self):
        assert PARENTS[0] == 0
        for j in range(1, NUM_JOINTS):
            # walking up parents always reaches the nose
            cur, hops = j, 0
            while cur != 0:
                cur = PARENTS[cur]
                hops += 1
                assert hops < NUM_JOINTS
class TestRender:
    def setup_method(self):
        self.subj = synth_subject(5)

    def test_deterministic(self):
        k1, s1 = render_sequence(self.subj, "NM", 90, T=6, seed=3)
        k2, s2 = render_sequence(self.subj, "NM", 90, T=6, seed=3)
        np.testing.assert_array_equal(k1.joints, k2.joints)
        np.testing.assert_array_equal(s1.frames, s2.frames)

    def test_conditions_share_skeleton_but_not_silhouette(self):
        knm, snm = render_sequence(self.subj, "NM", 54, T=6, seed=11)
        kcl, scl = render_sequence(self.subj, "CL", 54, T=6, seed=11)
        kbg, sbg = render_sequence(self.subj, "BG", 54, T=6, seed=11)
        np.testing.assert_array_equal(knm.joints, kcl.joints)
        np.testing.assert_array_equal(knm.joints, kbg.joints)
        assert (snm.frames != scl.frames).any()
        assert (snm.frames != sbg.frames).any()

    def test_views_change_foreground_area(self):
        _, s0 = render_sequence(self.subj, "NM", 0, T=6, seed=2)
        _, s90 = render_sequence(self.subj, "NM", 90, T=6, seed=2)
        assert s0.frames.sum() != s90.frames.sum()

    def test_every_frame_has_foreground(self):
        for view in (0, 90, 180):
            _, sil = render_sequence(self.subj, "NM", view, T=10, seed=1)
            assert (sil.frames.reshape(10, -1).sum(axis=1) >= 1).all()

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            render_sequence(self.subj, "NM", 0, T=1, seed=0)

    def test_zero_height_body_rejected(self):
        import dataclasses

        squashed = dataclasses.replace(
            self.subj, limb_lengths={k: 0.0 for k in self.subj.limb_lengths}
        )
        with pytest.raises(ValueError):
            render_sequence(squashed, "NM", 0, T=4, seed=0)

    def test_empty_silhouette_names_first_empty_frame(self):
        import dataclasses

        # a pelvis bob this large drops the body off the image after frame 0
        bouncy = dataclasses.replace(
            self.subj, amplitudes={**self.subj.amplitudes, "bob": 100.0}
        )
        with pytest.raises(ValueError, match="empty silhouette at frame 1$"):
            render_sequence(bouncy, "NM", 0, T=10, seed=1)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            render_sequence(self.subj, "XX", 0, T=4, seed=0)

    def test_joints_land_on_foreground(self):
        # frame alignment: >= 90% of joints within 2 px of a foreground pixel
        for seed in (0, 1):
            ske, sil = render_sequence(self.subj, "NM", 72, T=8, seed=seed)
            for t in range(8):
                fg = np.argwhere(sil.frames[t] > 0)  # (n, (row, col))
                ok = 0
                for u, v in ske.joints[t]:
                    d = np.hypot(fg[:, 0] - v, fg[:, 1] - u).min()
                    ok += d <= 2.0
                assert ok >= 0.9 * NUM_JOINTS

    def test_frames_binary_64x64(self):
        _, sil = render_sequence(self.subj, "CL", 126, T=5, seed=9)
        assert sil.frames.shape == (5, 64, 64)
        assert set(np.unique(sil.frames)) <= {0, 1}


# sha256 of joints.tobytes() + frames.tobytes() for T = 2, 7, 30, keyed by
# (condition, seed, view) for subject 5. Seeds 0 and 2 put the BG bag on
# opposite hands; view 90 makes the shoulder and hip lines zero-length. Seed
# 211 poses a knee where squaring by libm pow and by x*x differ in the last bit.
GOLDEN_RENDERS = {
    ("NM", 211, 0): "e103a48b8dde0d2401bcb83952528d75f9d0edf0b4561cb15c98840415317375",
    ("NM", 211, 54): "c340c945f6c6a81737d1441591e461436bd5c609f540072b69ca7950cc538017",
    ("NM", 211, 90): "cbbc0cbc80b30020ca53987ed956f41a12606af76f683670fb9342985b6ebc03",
    ("NM", 211, 180): "e988a4237b4f6904bd3c2ef05d77f164a2fd444c8e51b5d03c2dc92dad2388f0",
    ("BG", 0, 0): "924bb8987a542ecc6d70c17fbf97f75ea3fd068778da8626692e8bae059889b8",
    ("BG", 0, 54): "bce7a4b1dee41a8d4d281e78e2f42b4ba9267749979e9d49a2fdf363b0f8f1c4",
    ("BG", 0, 90): "bf3316dc413ec271e304a0450ad7a34dce0d45b17347721a425fc70eb2c393c9",
    ("BG", 0, 180): "4b7202a814b15fb0b9dcf6184a5e800e5b0c9eac0dbfcc15a8cab287b49ee5e8",
    ("BG", 2, 0): "7d9b86b2dcd7f7cca61980666344edb0aca734ad5a2df8109cb0d6fcc6b190bd",
    ("BG", 2, 54): "d5241cd3b77494b37e35c0bba453c72f04adf11a28dea2ea269df6797eb71c5b",
    ("BG", 2, 90): "d624377fc1946b7cafd64fcf8c33510fff28095f0107485b994ace53523a1b4f",
    ("BG", 2, 180): "bc669bcf096ef58b2477fd8ca05fa32dba98bcaf75e5bdcfc0c021fc8a3c4d0c",
    ("CL", 211, 0): "a954ce7ae214643308a239a176230a036f8dac2929013a494e49b87bfdfc9832",
    ("CL", 211, 54): "abe397628940b30cab9b6908fd370ffb84de0fceee7a879ba1cce7d02ffca547",
    ("CL", 211, 90): "88788adc5453ac99eb052b28e70eb465a63381c475cbd7da7e5ac40e253872c6",
    ("CL", 211, 180): "bd39baea20d8fab168deb614427af057bb4430fa3c4abf1ad9506fe2dd86a95e",
}


class TestRenderGolden:
    def test_bag_seeds_cover_both_hands(self):
        # render_sequence draws phase and frequency, then the bag side
        sides = set()
        for seed in (0, 2):
            rng = np.random.default_rng(seed)
            rng.uniform(), rng.uniform()
            sides.add(rng.uniform() < 0.5)
        assert sides == {True, False}

    @pytest.mark.parametrize("condition,seed,view", sorted(GOLDEN_RENDERS))
    def test_bytes_match_golden(self, condition, seed, view):
        subj = synth_subject(5)
        h = hashlib.sha256()
        for T in (2, 7, 30):
            ske, sil = render_sequence(subj, condition, view, T=T, seed=seed)
            h.update(ske.joints.tobytes() + sil.frames.tobytes())
        assert h.hexdigest() == GOLDEN_RENDERS[(condition, seed, view)]


# sha256 of one file per format, written from fixed inputs; any change to the
# on-disk bytes of TGSL, TGKT or TGCK shows here
GOLDEN_FILES = {
    "tgsl": "c99f564c3c2d79f81da3046630005ea21ef1a62610dfbef46e5591df9c2e920a",
    "tgkt": "90f8bca251142fcfee01d9fc7373ded15fb76c0eca21bf07ca67ea12a79d1843",
    "tgck": "00d62808b1932d2b16018508ee169c241eda6abc430d69b0db94e149b1147cc8",
}


def write_fixed_files(root):
    """One TGSL, TGKT and TGCK file from fixed inputs, as root/a.<ext>."""
    ske, sil = render_sequence(synth_subject(77), "NM", 36, T=5, seed=4)
    write_silhouette(root / "a.tgsl", sil)
    write_keypoints(root / "a.tgkt", ske)
    save_checkpoint(root / "a.tgck", {
        "a.weight": np.arange(24.0).reshape(3, 4, 2) / 7.0,
        "b": np.array(3.25),
        "c.running_var": np.linspace(-1.0, 1.0, 7),
    })
    return root


class TestFileBytesGolden:
    @pytest.mark.parametrize("ext", sorted(GOLDEN_FILES))
    def test_sha256_matches_golden(self, tmp_path, ext):
        raw = (write_fixed_files(tmp_path) / f"a.{ext}").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_FILES[ext]


def make_tiny_dataset(root, n_subjects=3, views=(0, 90), seqs_per_view=2, T=32):
    pairs = []
    for sid in range(n_subjects):
        subj = synth_subject(1000 + sid)
        for view in views:
            for q in range(seqs_per_view):
                cond = "NM" if q == 0 else "BG"
                seed = sid * 1000 + view * 10 + q
                pairs.append(
                    render_sequence(subj, cond, view, T=T, seed=seed,
                                    subject_id=sid, seq_index=q)
                )
    return write_dataset(root, pairs)


class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        subj = synth_subject(77)
        ske, sil = render_sequence(subj, "NM", 36, T=31, seed=4, subject_id=7, seq_index=3)
        write_silhouette(tmp_path / "a.tgsl", sil)
        write_keypoints(tmp_path / "a.tgkt", ske)
        np.testing.assert_array_equal(read_silhouette_frames(tmp_path / "a.tgsl"), sil.frames)
        np.testing.assert_array_equal(read_keypoints(tmp_path / "a.tgkt"), ske.joints)

    def test_dataset_roundtrip_and_manifest(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d")
        back = read_dataset(tmp_path / "d")
        assert len(back) == len(ds) == 3 * 2 * 2
        r0 = back.records()[0]
        f1, j1 = ds.load_pair(r0)
        f2, j2 = back.load_pair(r0)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(j1, j2)

    def test_missing_manifest_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError) as ei:
            read_dataset(tmp_path / "nothing")
        assert "nothing" in str(ei.value)

    def test_corrupt_magic_names_file(self, tmp_path):
        p = tmp_path / "bad.tgsl"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError) as ei:
            read_silhouette_frames(p)
        assert "bad.tgsl" in str(ei.value)

    @pytest.fixture
    def written(self, tmp_path):
        return write_fixed_files(tmp_path)

    @pytest.mark.parametrize("name,header", [("a.tgsl", 20), ("a.tgkt", 16), ("a.tgck", 12)])
    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw, header: raw[:-1],
            lambda raw, header: raw[: len(raw) // 2],
            lambda raw, header: raw + b"\x00",
            lambda raw, header: raw[: header - 1],
        ],
        ids=["one_byte_short", "half_length", "trailing_byte", "short_header"],
    )
    def test_wrong_length_rejected_with_path(self, written, name, header, damage):
        path = written / name
        path.write_bytes(damage(path.read_bytes(), header))
        readers = {".tgsl": read_silhouette_frames, ".tgkt": read_keypoints,
                   ".tgck": load_checkpoint}
        with pytest.raises(ValueError) as ei:
            readers[path.suffix](path)
        assert str(path) in str(ei.value)

    def test_nan_keypoint_rejected_with_path(self, written):
        path = written / "a.tgkt"
        joints = read_keypoints(path)
        joints[3, 7, 1] = np.nan
        raw = path.read_bytes()
        path.write_bytes(raw[:16] + joints.astype("<f8").tobytes())
        with pytest.raises(ValueError) as ei:
            read_keypoints(path)
        assert str(path) in str(ei.value)
        assert "frame 3" in str(ei.value)

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("0\tNM\t0\t0", "5 tab-separated columns"),
            ("0\tNM\t0\t0\tx\textra", "5 tab-separated columns"),
            ("0\tNM\tninety\t0\tx", "non-integer subject, view or seq_index"),
            ("0\tNM\t1.5\t0\tx", "non-integer subject, view or seq_index"),
            ("0\tXX\t0\t0\tx", "condition 'XX' not in NM/BG/CL"),
            ("-1\tNM\t0\t0\tx", "negative subject, view or seq_index"),
            ("0\tNM\t-5\t0\tx", "negative subject, view or seq_index"),
            ("0\tNM\t0\t-2\tx", "negative subject, view or seq_index"),
            (None, "duplicate stem"),
        ],
        ids=["three_columns", "six_columns", "word_view", "float_view", "unknown_condition",
             "negative_subject", "negative_view", "negative_seq_index", "duplicate_stem"],
    )
    def test_malformed_manifest_row_names_path_and_line(self, tmp_path, row, reason):
        make_tiny_dataset(tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        # the offending row goes in as line 3, after the first record
        lines.insert(2, lines[1] if row is None else row)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as ei:
            read_dataset(tmp_path / "d")
        assert f"{manifest}:3:" in str(ei.value)
        assert reason in str(ei.value)

    def test_manifest_counts_match_files(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d")
        files = list((tmp_path / "d").glob("*.tgsl"))
        assert len(files) == len(ds)


class TestSampleBatch:
    def test_default_spec_counts(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d", n_subjects=8, views=(0,), seqs_per_view=2)
        rng = np.random.default_rng(0)
        sils, skes, labels = sample_batch(ds, 8, 16, 30, rng)
        assert sils.shape == (128, 30, 64, 64)
        assert skes.shape == (128, 30, 17, 2)
        labels, counts = np.unique(labels, return_counts=True)
        assert len(labels) == 8
        assert (counts == 16).all()

    def test_exact_length_used_whole(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d", n_subjects=2, views=(0,), seqs_per_view=1, T=30)
        rng = np.random.default_rng(1)
        sils, _, _ = sample_batch(ds, 2, 2, 30, rng)
        rec = ds.records_for(0)[0]
        frames, _ = ds.load_pair(rec)
        matches = [np.array_equal(sil, frames) for sil in sils]
        assert any(matches)

    def test_modalities_share_crop_window(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d", n_subjects=2, views=(90,), seqs_per_view=1, T=40)
        rng = np.random.default_rng(2)
        sils, skes, labels = sample_batch(ds, 2, 3, 8, rng)
        # find each crop in the source sequence; both modalities must agree
        for sil, ske, subj in zip(sils, skes, labels):
            frames, joints = ds.load_pair(ds.records_for(int(subj))[0])
            starts = [s for s in range(40 - 8 + 1) if np.array_equal(frames[s : s + 8], sil)]
            assert any(np.array_equal(joints[s : s + 8], ske) for s in starts)

    def test_too_few_subjects_rejected(self, tmp_path):
        ds = make_tiny_dataset(tmp_path / "d", n_subjects=2)
        with pytest.raises(ValueError):
            sample_batch(ds, 8, 16, 30, np.random.default_rng(0))
