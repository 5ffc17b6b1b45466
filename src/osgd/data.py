"""Datasets: synthetic 2-D geometries, digit-file ingestion, splits, cache.

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
    seed: int | None = None

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
    return _geometry_dataset(f"gen_clusters_2d(seed={seed})", seed, [
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
    return _geometry_dataset(f"gen_rings_2d(seed={seed})", seed, blocks)


def _geometry_dataset(provenance, seed, blocks):
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
        seed=seed,
    )


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX image/label pair used by the MNIST family.

    Images: magic 0x00000803, then counts/rows/cols as u32, then unsigned
    bytes row-major.  Labels: magic 0x00000801, count, bytes.  Pixels are
    scaled to [0, 1].
    """
    img = _read_bytes(images_path)
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

    lab = _read_bytes(labels_path)
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


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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


# Binary cache layout (all integers little-endian):
#   magic "OSGDCACH" | u32 version=1 | u64 n | u64 d | u32 n_classes |
#   i64 seed (-1 for none) | u32 prov_len | prov utf-8 |
#   u32 n_splits | per split: u32 name_len, name, u64 count, u64 indices... |
#   u32 n_groups | same encoding |
#   features as n*d little-endian float64 | labels as n little-endian int64
_CACHE_MAGIC = b"OSGDCACH"


def save_cache(ds: Dataset, path) -> None:
    """Write the dataset in the documented little-endian cache layout."""
    prov = ds.provenance.encode("utf-8")
    parts = [
        _CACHE_MAGIC,
        struct.pack("<IQQIq", 1, ds.n, ds.d, ds.n_classes,
                    -1 if ds.seed is None else ds.seed),
        struct.pack("<I", len(prov)), prov,
        _pack_index_table(ds.splits),
        _pack_index_table(ds.groups),
        np.ascontiguousarray(ds.features, dtype="<f8").tobytes(),
        np.ascontiguousarray(ds.labels, dtype="<i8").tobytes(),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _pack_index_table(table):
    parts = [struct.pack("<I", len(table))]
    for name, idx in table.items():
        enc = name.encode("utf-8")
        parts.append(struct.pack("<I", len(enc)))
        parts.append(enc)
        parts.append(struct.pack("<Q", len(idx)))
        parts.append(np.ascontiguousarray(idx, dtype="<u8").tobytes())
    return b"".join(parts)


def load_cache(path) -> Dataset:
    """Read a dataset written by :func:`save_cache` (lossless round-trip).

    A file that ends early, holds a split or group index outside [0, n),
    a label outside [0, n_classes) or a non-finite feature raises
    :class:`FormatError` naming the byte offset.
    """
    r = _CacheReader(path, _read_bytes(path))
    magic = bytes(r.take(8, "magic"))
    if magic != _CACHE_MAGIC:
        raise FormatError(f"{path}: bad cache magic {magic!r} at byte 0")
    version, n, d, n_classes, seed = r.unpack("<IQQIq", "header")
    if version != 1:
        raise FormatError(f"{path}: unsupported cache version {version} "
                          f"at byte 8")
    prov = r.text("provenance")
    splits = r.index_table("split", n)
    groups = r.index_table("group", n)
    features = r.array("<f8", n * d, "features", np.isfinite, "not finite")
    labels = r.array("<i8", n, "labels", lambda v: (v >= 0) & (v < n_classes),
                     f"outside [0, n_classes={n_classes})")
    if r.off != len(r.buf):
        raise FormatError(f"{path}: {len(r.buf) - r.off} trailing bytes "
                          f"from offset {r.off}")
    return Dataset(features=features.reshape(n, d).copy(),
                   labels=labels.astype(np.int64),
                   n_classes=n_classes, splits=splits, groups=groups,
                   provenance=prov, seed=None if seed == -1 else seed)


class _CacheReader:
    """Sequential reads from a cache file; a short read is a FormatError."""

    def __init__(self, path, buf):
        self.path, self.buf, self.off = path, memoryview(buf), 0

    def take(self, size, what):
        if self.off + size > len(self.buf):
            raise FormatError(f"{self.path}: truncated at byte "
                              f"{len(self.buf)}, expected {size} bytes of "
                              f"{what} from offset {self.off}")
        self.off += size
        return self.buf[self.off - size:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count, what, valid=None, rule=""):
        """``count`` values; the first one that fails ``valid`` is a
        FormatError naming its offset and the ``rule`` it breaks."""
        dtype = np.dtype(dtype)
        start = self.off
        arr = np.frombuffer(self.take(count * dtype.itemsize, what),
                            dtype=dtype)
        bad = np.flatnonzero(~valid(arr)) if valid is not None else ()
        if len(bad):
            i = int(bad[0])
            raise FormatError(f"{self.path}: {what}[{i}] = {arr[i]} at offset "
                              f"{start + i * dtype.itemsize} is {rule}")
        return arr

    def text(self, what):
        (size,) = self.unpack("<I", f"{what} length")
        start = self.off
        raw = bytes(self.take(size, what))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} at offset {start} is not "
                              f"UTF-8 ({exc.reason})") from None

    def index_table(self, kind, n):
        """Named index arrays, each index checked against the row count n."""
        (count,) = self.unpack("<I", f"{kind} count")
        table = {}
        for _ in range(count):
            name = self.text(f"{kind} name")
            (m,) = self.unpack("<Q", f"{kind} '{name}' length")
            start = self.off
            idx = self.array("<u8", m, f"{kind} '{name}' indices")
            if m and idx.max() >= n:
                raise FormatError(
                    f"{self.path}: {kind} '{name}' from offset {start} holds "
                    f"index {int(idx.max())}, outside [0, n={n})")
            table[name] = idx.astype(np.int64)
        return table
