"""Datasets: synthetic 2-D geometries, digit-file ingestion, splits.

The two synthetic generators reproduce the qualitative structure used in
the 2-D experiments: class-imbalanced Gaussian blobs with small mid-field
sub-clusters, and four concentric rings where the two inner rings carry
only 40 of the 1000 points.  Row groups ("majority"/"subcluster",
"inner"/"outer") are kept on the dataset so experiments can score those
regions separately.

The geometry tables (``CLUSTERS_2D``, ``RINGS_2D``) are part of the
versioned source on purpose: the qualitative comparisons in the acceptance
suite and the benchmark digests depend on their exact draws.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A data file violates its documented layout."""


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with integer labels, named splits, and groups."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    splits: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    provenance: str = ""

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"row count mismatch: {self.features.shape[0]} feature rows "
                f"vs {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def split(self, name):
        """(features, labels) restricted to the named split."""
        idx = self.splits[name]
        return self.features[idx], self.labels[idx]

    def with_splits(self, splits):
        return replace(self, splits=dict(splits))

    def with_default_splits(self):
        """This dataset, or, where it has no splits, a copy whose train and
        test splits are both every row (the 2-D experiments' setting)."""
        if self.splits:
            return self
        return self.with_splits({"train": np.arange(self.n),
                                 "test": np.arange(self.n)})


# Class-imbalanced blobs, one row per component: centre, count, sigma,
# label, group.  Two majority blobs are linearly separable; each class has
# one small mid-field sub-cluster on the wrong side of the natural
# average-loss boundary.
CLUSTERS_2D = (
    ((-2.5, 0.0), 90, 0.45, 0, "majority"),
    ((1.1, 0.85), 10, 0.18, 0, "subcluster"),
    ((2.5, 0.0), 90, 0.45, 1, "majority"),
    ((-1.1, -0.85), 10, 0.18, 1, "subcluster"),
)

# Concentric rings, one row per ring: count, radius, label, group.  The two
# inner rings hold 40 of the 1000 points, well apart from each other and far
# inside the outer pair, so a small network can represent the alternating
# bands while the count imbalance hides the inner structure from the
# average loss at the standard step size.
RINGS_2D = (
    (20, 0.5, 0, "inner"),
    (20, 2.0, 1, "inner"),
    (480, 5.0, 0, "outer"),
    (480, 6.5, 1, "outer"),
)
RINGS_NOISE_SIGMA = 0.15  # standard deviation of the radial noise


def gen_clusters_2d(seed: int) -> Dataset:
    """Gaussian blob mixture of :data:`CLUSTERS_2D`; deterministic in seed."""
    rng = np.random.default_rng(seed)
    return _geometry_dataset(f"gen_clusters_2d(seed={seed})", [
        (np.asarray(center) + sigma * rng.standard_normal((count, 2)),
         label, group)
        for center, count, sigma, label, group in CLUSTERS_2D])


def gen_rings_2d(seed: int) -> Dataset:
    """Noisy rings of :data:`RINGS_2D`: uniform angles, Gaussian radial
    noise; deterministic in seed."""
    rng = np.random.default_rng(seed)
    blocks = []
    for count, radius, label, group in RINGS_2D:
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        r = radius + RINGS_NOISE_SIGMA * rng.standard_normal(count)
        blocks.append((np.column_stack([r * np.cos(angles), r * np.sin(angles)]),
                       label, group))
    return _geometry_dataset(f"gen_rings_2d(seed={seed})", blocks)


def _geometry_dataset(provenance, blocks):
    """Two-class dataset of (points, label, group) blocks stacked in order;
    groups are named in order of first appearance."""
    counts = [len(pts) for pts, _, _ in blocks]
    owner = np.repeat([group for _, _, group in blocks], counts)
    return Dataset(
        features=np.vstack([pts for pts, _, _ in blocks]),
        labels=np.repeat(np.array([label for _, label, _ in blocks],
                                  dtype=np.int64), counts),
        n_classes=2,
        groups={g: np.flatnonzero(owner == g)
                for g in dict.fromkeys(group for _, _, group in blocks)},
        provenance=provenance,
    )


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX image/label pair used by the MNIST family.

    Images: magic 0x00000803, then counts/rows/cols as u32, then unsigned
    bytes row-major.  Labels: magic 0x00000801, count, bytes.  Pixels are
    scaled to [0, 1].
    """
    img = Path(images_path).read_bytes()
    if len(img) < 16:
        raise FormatError(f"{images_path}: truncated image header, "
                          f"{len(img)} bytes before offset 16")
    magic, n, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != _IDX_IMAGE_MAGIC:
        raise FormatError(f"{images_path}: bad magic 0x{magic:08x} at byte 0, "
                          f"expected 0x{_IDX_IMAGE_MAGIC:08x}")
    need = n * rows * cols
    if len(img) - 16 != need:
        raise FormatError(f"{images_path}: expected {need} pixel bytes from "
                          f"offset 16, found {len(img) - 16}")

    lab = Path(labels_path).read_bytes()
    if len(lab) < 8:
        raise FormatError(f"{labels_path}: truncated label header, "
                          f"{len(lab)} bytes before offset 8")
    lmagic, ln = struct.unpack(">II", lab[:8])
    if lmagic != _IDX_LABEL_MAGIC:
        raise FormatError(f"{labels_path}: bad magic 0x{lmagic:08x} at byte 0, "
                          f"expected 0x{_IDX_LABEL_MAGIC:08x}")
    if len(lab) - 8 != ln:
        raise FormatError(f"{labels_path}: expected {ln} label bytes from "
                          f"offset 8, found {len(lab) - 8}")
    if ln != n:
        raise FormatError(f"{labels_path}: count mismatch: {ln} labels vs "
                          f"{n} images in {images_path}")

    features = np.frombuffer(img, dtype=np.uint8, offset=16).astype(np.float64)
    features = features.reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(features=features, labels=labels,
                   n_classes=max(int(labels.max()) + 1, 2) if n else 2,
                   provenance=f"idx:{images_path}")


def load_semeion(path) -> Dataset:
    """Parse the 266-column Semeion text format: 256 pixels + 10 one-hot labels.

    The canonical file has 1593 rows of binary pixels; any row count is
    accepted.  Malformed, non-finite or multi-hot lines fail with their line
    number.
    """
    rows, labels = [], []
    with open(path, "rb") as fh:  # bytes: a non-text byte is a bad token
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 266:
                raise FormatError(f"{path}:{lineno}: expected 266 columns, "
                                  f"got {len(tokens)}")
            try:
                vals = np.array([float(t) for t in tokens], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise FormatError(f"{path}:{lineno}: column {bad[0] + 1} is "
                                  f"not finite ({tokens[bad[0]].decode()})")
            onehot = vals[256:]
            if not (np.isin(onehot, (0.0, 1.0)).all() and onehot.sum() == 1.0):
                raise FormatError(f"{path}:{lineno}: label block is not one-hot "
                                  f"(sum={onehot.sum():g})")
            rows.append(vals[:256])
            labels.append(int(onehot.argmax()))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return Dataset(features=np.vstack(rows),
                   labels=np.array(labels, dtype=np.int64),
                   n_classes=10, provenance=f"semeion:{path}")


def split_dataset(ds: Dataset, test_fraction: float, seed: int,
                  stratified: bool = False) -> Dataset:
    """Seeded shuffle-and-partition into train/test splits.

    Test size is floor(n * test_fraction) (per class when stratified, so
    each class's test share is within one example of the global fraction).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    if stratified:
        test_parts = []
        for cls in range(ds.n_classes):
            rows = np.flatnonzero(ds.labels == cls)
            take = int(np.floor(rows.size * test_fraction))
            test_parts.append(rng.permutation(rows)[:take])
        test = np.sort(np.concatenate(test_parts))
    else:
        n_test = int(np.floor(ds.n * test_fraction))
        test = np.sort(rng.permutation(ds.n)[:n_test])
    if test.size == 0 or test.size == ds.n:
        raise ValueError(
            f"degenerate split: {test.size} test rows out of {ds.n}")
    mask = np.ones(ds.n, dtype=bool)
    mask[test] = False
    return ds.with_splits({"train": np.flatnonzero(mask), "test": test})


def save_cache(*args, **kwargs):  # tracer only, deleted with ROADMAP 1a
    raise NotImplementedError("osgd has no binary dataset cache")


load_cache = save_cache
