"""Generators, file-format parsers and splits."""
import hashlib
import os
import pathlib
import re
import tempfile
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd.data import (RINGS_2D, RINGS_NOISE_SIGMA, Dataset, FormatError,
                       gen_clusters_2d, gen_rings_2d, load_idx,
                       load_semeion, split_dataset)

SEMEION_PATH = os.environ.get("OSGD_SEMEION_PATH", "data/semeion.data")


class TestDatasetChecks:
    @pytest.mark.parametrize("features,labels,match", [
        (np.zeros((3, 2)), np.zeros(2, dtype=np.int64),
         r"^row count mismatch: 3 feature rows vs 2 labels$"),
        (np.zeros((2, 2)), np.array([0, 3]), r"^labels must lie in \[0, 3\)$"),
        (np.zeros((2, 2)), np.array([-1, 0]), r"^labels must lie in \[0, 3\)$"),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), np.array([0, 1]),
         r"^features contain non-finite values$"),
    ], ids=["row-count", "label-above", "label-below", "non-finite"])
    def test_inconsistent_arrays_rejected(self, features, labels, match):
        with pytest.raises(ValueError, match=match):
            Dataset(features=features, labels=labels, n_classes=3)


class TestClusters:
    def test_totals_and_balance(self):
        ds = gen_clusters_2d(0)
        assert ds.n == 200
        assert ds.features.shape == (200, 2)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [100, 100]
        assert len(ds.groups["majority"]) == 180
        assert len(ds.groups["subcluster"]) == 20

    def test_seeded_determinism(self):
        a, b = gen_clusters_2d(5), gen_clusters_2d(5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_clusters_2d(6)
        assert not np.array_equal(a.features, c.features)


class TestRings:
    def test_totals(self):
        ds = gen_rings_2d(0)
        assert ds.n == 1000
        assert len(ds.groups["inner"]) == 40
        assert len(ds.groups["outer"]) == 960
        counts = np.bincount(ds.labels)
        assert counts.sum() == 1000

    def test_inner_points_inside_outer_radius_margin(self):
        outer_radius = min(r for _, r, _, group in RINGS_2D if group == "outer")
        for seed in range(5):
            ds = gen_rings_2d(seed)
            radii = np.linalg.norm(ds.features[ds.groups["inner"]], axis=1)
            assert radii.max() < outer_radius - 3.0 * RINGS_NOISE_SIGMA

    def test_seeded_determinism(self):
        a, b = gen_rings_2d(7), gen_rings_2d(7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_classes_alternate_per_ring(self):
        ds = gen_rings_2d(2)
        # ring blocks are contiguous in table order, classes alternating
        assert [label for _, _, label, _ in RINGS_2D] == [0, 1, 0, 1]
        start = 0
        for count, _, label, _ in RINGS_2D:
            assert (ds.labels[start:start + count] == label).all()
            start += count
        assert start == ds.n


def geometry_digest(ds):
    """sha256 of the features, the labels and the named group arrays, in
    order, each with its dtype and shape."""
    h = hashlib.sha256()
    for arr in (ds.features, ds.labels):
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for name, idx in ds.groups.items():
        h.update(name.encode())
        h.update(str((idx.dtype.str, idx.shape)).encode())
        h.update(np.ascontiguousarray(idx).tobytes())
    return h.hexdigest()


# The generated 2-D data, pinned bit for bit: the qualitative experiments
# and the benchmark digests depend on these exact draws.
PINNED_GEOMETRIES = {
    (gen_clusters_2d, 0):
        "dd427ef41dc30f4d177cc4f8eac7fd57d5a34ee27b7037df2b6a6d9bcf57764f",
    (gen_clusters_2d, 1):
        "55e9de62eab186fff2e5ba3d6eba902a9dc287165b2197dd211435342aca470e",
    (gen_clusters_2d, 2):
        "33783ed7fdbaf789207ceb95526ee515426989d349a602bab8aeb4f865806947",
    (gen_rings_2d, 0):
        "154cc29da707e4ad29730e09fc4420fd2673215168628b42e1fed9cc6ecb2315",
    (gen_rings_2d, 1):
        "a87b51f62edb6f47558b46629f3279115134c403328ca36e4ef237969703c481",
    (gen_rings_2d, 2):
        "dfab02943f831e2f2da50755241a6e1324ce39e27e0868113b3a93cbc8d4766b",
}


@pytest.mark.parametrize("gen, seed", list(PINNED_GEOMETRIES),
                         ids=[f"{g.__name__}-{s}" for g, s in PINNED_GEOMETRIES])
def test_generated_geometry_is_pinned(gen, seed):
    ds = gen(seed)
    assert geometry_digest(ds) == PINNED_GEOMETRIES[gen, seed]
    assert ds.provenance == f"{gen.__name__}(seed={seed})"
    assert ds.n_classes == 2 and not ds.splits


def write_idx_pair(tmp_path, pixels, labels):
    """Build an IDX image/label pair byte by byte."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return images_path, labels_path


class TestIdx:
    def test_two_image_fixture_recovers_exact_pixels(self, tmp_path):
        pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
        images, labels = write_idx_pair(tmp_path, pixels, [7, 2])
        ds = load_idx(images, labels)
        assert ds.features.shape == (2, 9)
        np.testing.assert_allclose(ds.features,
                                   pixels.reshape(2, 9) / 255.0)
        assert ds.labels.tolist() == [7, 2]

    def test_image_magic_on_label_file_rejected(self, tmp_path):
        path = tmp_path / "bad-labels.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000803, 2))
            fh.write(bytes([1, 2]))
        images, _ = write_idx_pair(tmp_path,
                                   np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        with pytest.raises(FormatError, match="0x00000803"):
            load_idx(images, path)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(empty, empty)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 3, 3))
            fh.write(bytes(10))  # needs 18
        _, labels = write_idx_pair(tmp_path,
                                   np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        with pytest.raises(FormatError, match="expected 18 pixel bytes"):
            load_idx(path, labels)

    def test_count_mismatch_rejected(self, tmp_path):
        images, _ = write_idx_pair(tmp_path,
                                   np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        label_path = tmp_path / "three-labels.idx"
        with open(label_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 3))
            fh.write(bytes([0, 1, 2]))
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(images, label_path)


def semeion_line(pixels, label, n_classes=10):
    onehot = ["1" if k == label else "0" for k in range(n_classes)]
    return " ".join(f"{p:.4f}" for p in pixels) + " " + " ".join(onehot)


class TestSemeion:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "semeion.data"
        px0 = [1.0 if i % 3 == 0 else 0.0 for i in range(256)]
        px1 = [0.0] * 255 + [1.0]
        path.write_text(semeion_line(px0, 4) + "\n" + semeion_line(px1, 9) + "\n")
        ds = load_semeion(path)
        assert ds.features.shape == (2, 256)
        np.testing.assert_array_equal(ds.features[0], px0)
        np.testing.assert_array_equal(ds.features[1], px1)
        assert ds.labels.tolist() == [4, 9]
        assert ds.n_classes == 10

    def test_multi_hot_label_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.data"
        good = semeion_line([0.0] * 256, 3)
        bad = " ".join(["0.0000"] * 256) + " 1 1 0 0 0 0 0 0 0 0"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(FormatError, match=":2:"):
            load_semeion(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "short.data"
        path.write_text("0.0 1.0 0.0\n")
        with pytest.raises(FormatError, match="expected 266 columns"):
            load_semeion(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_pixel_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.data"
        tokens = semeion_line([0.0] * 256, 3).split()
        tokens[5] = value
        path.write_text(semeion_line([0.0] * 256, 1) + "\n" + " ".join(tokens))
        with pytest.raises(FormatError, match=rf"{path.name}:2: column 6 is "
                                              rf"not finite \({value}\)"):
            load_semeion(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        path = tmp_path / "empty.data"
        path.write_text(text)
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path))}: no data rows$"):
            load_semeion(path)

    @pytest.mark.skipif(not os.path.exists(SEMEION_PATH),
                        reason=f"canonical file not present at {SEMEION_PATH}")
    def test_canonical_file_row_count(self):
        ds = load_semeion(SEMEION_PATH)
        assert ds.n == 1593
        assert set(np.unique(ds.features)) <= {0.0, 1.0}


class TestSplit:
    def make(self, n, n_classes=4):
        rng = np.random.default_rng(0)
        return Dataset(features=rng.standard_normal((n, 3)),
                       labels=np.arange(n) % n_classes,
                       n_classes=n_classes)

    def test_floor_rounding(self):
        ds = self.make(1593)
        out = split_dataset(ds, 0.2, seed=0)
        assert len(out.splits["test"]) == 318  # floor(1593 * 0.2)
        assert len(out.splits["train"]) == 1593 - 318

    def test_same_seed_identical(self):
        ds = self.make(100)
        a = split_dataset(ds, 0.3, seed=9)
        b = split_dataset(ds, 0.3, seed=9)
        np.testing.assert_array_equal(a.splits["test"], b.splits["test"])
        c = split_dataset(ds, 0.3, seed=10)
        assert not np.array_equal(a.splits["test"], c.splits["test"])

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make(57)
        out = split_dataset(ds, 0.25, seed=3)
        both = np.concatenate([out.splits["train"], out.splits["test"]])
        assert sorted(both.tolist()) == list(range(57))

    def test_stratified_proportions(self):
        ds = self.make(400, n_classes=4)
        out = split_dataset(ds, 0.2, seed=1, stratified=True)
        _, yte = out.split("test")
        for cls in range(4):
            assert abs(int((yte == cls).sum()) - 20) <= 1

    def test_unsplit_dataset_returns_its_own_arrays(self):
        ds = self.make(10)
        for name in ("train", "test"):
            X, y = ds.split(name)
            assert X is ds.features and y is ds.labels

    def test_degenerate_fraction_rejected(self):
        ds = self.make(10)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.01, seed=0)  # floor gives zero test rows


SEMEION_TOKENS = st.sampled_from(
    [b"nan", b"inf", b"-inf", b"1e400", b"x", b"2", b"-1", b"0.5", b"1", b"0",
     b"1,0", b"\xff", b"\x00", b"0x1", b"1_0", b"--", b"\xd9\xa3"])


class TestParserFuzz:
    """Mutated files either load or raise a FormatError naming the file."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 270),
                              st.sampled_from(["set", "drop", "insert"]),
                              SEMEION_TOKENS | st.binary(max_size=4)),
                    max_size=6))
    def test_semeion_line_mutations(self, edits):
        pixels = [float(i % 2) for i in range(256)]
        lines = [semeion_line(pixels, k).encode().split() for k in (0, 4, 9)]
        for row, col, op, token in edits:
            toks = lines[row]
            col = min(col, len(toks))
            if op == "set" and col < len(toks):
                toks[col] = token
            elif op == "drop" and col < len(toks):
                del toks[col]
            elif op == "insert":
                toks.insert(col, token)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.data")
            with open(path, "wb") as fh:
                fh.write(b"\n".join(b" ".join(toks) for toks in lines))
            try:
                ds = load_semeion(path)
            except FormatError as exc:
                assert path in str(exc)
                return
        assert np.isfinite(ds.features).all() and ds.n <= 3

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["images", "labels"]),
           st.lists(st.tuples(st.integers(0, 40), st.integers(0, 255)),
                    max_size=4),
           st.integers(0, 40) | st.none(), st.binary(max_size=3),
           st.integers(0, 5) | st.none())
    def test_idx_byte_mutations(self, which, flips, cut, tail, count):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            paths = dict(zip(("images", "labels"), write_idx_pair(
                tmp, np.arange(24, dtype=np.uint8).reshape(3, 2, 4), [1, 0, 2])))
            blob = bytearray(paths[which].read_bytes())
            if count is not None:  # a consistent file with another count
                head = 16 if which == "images" else 8
                unit = 8 if which == "images" else 1
                blob[4:8] = struct.pack(">I", count)
                blob[head:] = bytes(count * unit)
            for pos, byte in flips:  # header bytes and body bytes alike
                if pos < len(blob):
                    blob[pos] = byte
            if cut is not None:
                del blob[cut:]
            paths[which].write_bytes(bytes(blob) + tail)
            try:
                ds = load_idx(paths["images"], paths["labels"])
            except FormatError as exc:
                assert str(paths[which]) in str(exc)
                return
        assert ds.n == len(ds.labels)
