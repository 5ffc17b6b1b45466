"""Generators, file-format parsers, splits, and the binary cache."""
import os
import tempfile
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd.data import (ClusterComponent, ClustersSpec, Dataset, FormatError,
                       RingsSpec, gen_clusters_2d, gen_rings_2d, load_cache,
                       load_idx, load_semeion, save_cache, split_dataset)

SEMEION_PATH = os.environ.get("OSGD_SEMEION_PATH", "data/semeion.data")


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

    def test_label_histogram_matches_spec_counts(self):
        spec = ClustersSpec()
        ds = gen_clusters_2d(1, spec)
        for comp in spec.components:
            member = [i for i, k in enumerate(ds.labels) if k == comp.label]
            assert len(member) == sum(c.count for c in spec.components
                                      if c.label == comp.label)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ClustersSpec(components=(
                ClusterComponent((0, 0), 100, 0.5, 0, "majority"),
                ClusterComponent((1, 1), 90, 0.5, 1, "majority"),
                ClusterComponent((0, 1), 5, 0.2, 0, "subcluster"),
                ClusterComponent((1, 0), 6, 0.2, 1, "subcluster"),
            ))

    def test_missing_subcluster_rejected(self):
        with pytest.raises(ValueError, match="sub-cluster"):
            ClustersSpec(components=(
                ClusterComponent((0, 0), 95, 0.5, 0, "majority"),
                ClusterComponent((1, 1), 95, 0.5, 1, "majority"),
                ClusterComponent((0, 1), 10, 0.2, 0, "subcluster"),
            ))


class TestRings:
    def test_totals(self):
        ds = gen_rings_2d(0)
        assert ds.n == 1000
        assert len(ds.groups["inner"]) == 40
        assert len(ds.groups["outer"]) == 960
        counts = np.bincount(ds.labels)
        assert counts.sum() == 1000

    def test_inner_points_inside_outer_radius_margin(self):
        spec = RingsSpec()
        for seed in range(5):
            ds = gen_rings_2d(seed, spec)
            radii = np.linalg.norm(ds.features[ds.groups["inner"]], axis=1)
            assert radii.max() < spec.radii[2] - 3.0 * spec.noise_sigma

    def test_seeded_determinism(self):
        a, b = gen_rings_2d(7), gen_rings_2d(7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_classes_alternate_per_ring(self):
        spec = RingsSpec()
        ds = gen_rings_2d(2, spec)
        # ring blocks are contiguous in generation order
        start = 0
        for count, cls in zip((*spec.inner_counts, *spec.outer_counts),
                              spec.ring_classes):
            assert (ds.labels[start:start + count] == cls).all()
            start += count

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            RingsSpec(inner_counts=(30, 20))
        with pytest.raises(ValueError):
            RingsSpec(radii=(0.5, 0.4, 1.0, 2.0))


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

    def test_degenerate_fraction_rejected(self):
        ds = self.make(10)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.01, seed=0)  # floor gives zero test rows


class TestCache:
    def test_lossless_roundtrip(self, tmp_path):
        ds = gen_rings_2d(3)
        ds = split_dataset(ds, 0.25, seed=1)
        path = tmp_path / "rings.osgd"
        save_cache(ds, path)
        back = load_cache(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.n_classes == ds.n_classes
        assert back.provenance == ds.provenance
        assert back.seed == ds.seed
        assert set(back.splits) == set(ds.splits)
        for name in ds.splits:
            np.testing.assert_array_equal(back.splits[name], ds.splits[name])
        for name in ds.groups:
            np.testing.assert_array_equal(back.groups[name], ds.groups[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.osgd"
        path.write_bytes(b"NOTACACHE" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_cache(path)

    def test_truncated_matrix_rejected(self, tmp_path):
        path = tmp_path / "cut.osgd"
        save_cache(gen_clusters_2d(1), path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-16])
        with pytest.raises(FormatError, match="truncated"):
            load_cache(path)

    def test_truncation_at_every_byte_names_the_offset(self, tmp_path):
        path = tmp_path / "cut.osgd"
        ds = split_dataset(gen_clusters_2d(0), 0.25, seed=1)
        ds = Dataset(features=ds.features[:12], labels=ds.labels[:12],
                     n_classes=2, splits={"train": np.arange(9),
                                          "test": np.arange(9, 12)},
                     groups={"majority": np.arange(12)},
                     provenance="twelve rows", seed=0)
        save_cache(ds, path)
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(FormatError,
                               match=rf"truncated at byte {cut}, .* offset"):
                load_cache(path)

    @pytest.mark.parametrize("table", ["splits", "groups"])
    def test_index_outside_rows_rejected_at_load(self, tmp_path, table):
        ds = gen_clusters_2d(1)
        bad = {"train": np.arange(10), "test": np.array([3, ds.n])}
        ds = Dataset(features=ds.features, labels=ds.labels, n_classes=2,
                     **{table: bad})
        path = tmp_path / "bad.osgd"
        save_cache(ds, path)
        with pytest.raises(FormatError,
                           match=rf"'test' from offset \d+ holds index {ds.n}"):
            load_cache(path)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(2, 4),
           st.integers(0, 2 ** 31))
    def test_random_roundtrip(self, n, d, n_classes, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(features=rng.standard_normal((n, d)),
                     labels=rng.integers(0, n_classes, n),
                     n_classes=n_classes,
                     splits={"train": rng.permutation(n)[: max(1, n // 2)]},
                     groups={"g": np.arange(n)},
                     provenance=f"fuzz-{seed}", seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.osgd")
            save_cache(ds, path)
            back = load_cache(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.splits["train"],
                                      ds.splits["train"])
        assert back.provenance == ds.provenance
