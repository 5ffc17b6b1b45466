"""Datasets: synthetic 2-D geometries, digit-file ingestion, splits, cache.

The two synthetic generators reproduce the qualitative structure used in
the 2-D experiments: class-imbalanced Gaussian blobs with small mid-field
sub-clusters, and four concentric rings where the two inner rings carry
only 40 of the 1000 points.  Row groups ("majority"/"subcluster",
"inner"/"outer") are kept on the dataset so experiments can score those
regions separately.

Default geometry constants are part of the versioned source on purpose:
the qualitative comparisons in the acceptance suite depend on them.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
        return Dataset(features=self.features, labels=self.labels,
                       n_classes=self.n_classes, splits=dict(splits),
                       groups=self.groups, provenance=self.provenance,
                       seed=self.seed)


@dataclass(frozen=True)
class ClusterComponent:
    center: tuple[float, float]
    count: int
    sigma: float
    label: int
    kind: str  # "majority" or "subcluster"


@dataclass(frozen=True)
class ClustersSpec:
    """Two majority blobs plus one small mid-field sub-cluster per class.

    Defaults give a linearly separable majority structure whose sub-clusters
    sit on the wrong side of the natural average-loss boundary.
    """

    n_total: int = 200
    components: tuple[ClusterComponent, ...] = (
        ClusterComponent(center=(-2.5, 0.0), count=90, sigma=0.45,
                         label=0, kind="majority"),
        ClusterComponent(center=(1.1, 0.85), count=10, sigma=0.18,
                         label=0, kind="subcluster"),
        ClusterComponent(center=(2.5, 0.0), count=90, sigma=0.45,
                         label=1, kind="majority"),
        ClusterComponent(center=(-1.1, -0.85), count=10, sigma=0.18,
                         label=1, kind="subcluster"),
    )

    def __post_init__(self):
        total = sum(c.count for c in self.components)
        if total != self.n_total:
            raise ValueError(f"component counts sum to {total}, "
                             f"expected n_total={self.n_total}")
        labels = {c.label for c in self.components}
        majority = sum(1 for c in self.components if c.kind == "majority")
        if majority < 2:
            raise ValueError("need at least two majority clusters")
        for lbl in labels:
            if not any(c.label == lbl and c.kind == "subcluster"
                       for c in self.components):
                raise ValueError(f"class {lbl} has no sub-cluster component")


@dataclass(frozen=True)
class RingsSpec:
    """Four concentric rings; the inner pair carries only 40 of 1000 points.

    Default radii keep the two inner rings well separated from each other
    and far inside the outer pair, so a small network can represent the
    alternating bands while the count imbalance still makes the inner
    structure invisible to the average loss at the standard step size.
    """

    n_total: int = 1000
    inner_counts: tuple[int, int] = (20, 20)
    outer_counts: tuple[int, int] = (480, 480)
    radii: tuple[float, float, float, float] = (0.5, 2.0, 5.0, 6.5)
    noise_sigma: float = 0.15
    ring_classes: tuple[int, int, int, int] = (0, 1, 0, 1)

    def __post_init__(self):
        if sum(self.inner_counts) != 40:
            raise ValueError(f"inner counts must sum to 40, "
                             f"got {sum(self.inner_counts)}")
        if sum(self.outer_counts) != 960:
            raise ValueError(f"outer counts must sum to 960, "
                             f"got {sum(self.outer_counts)}")
        if sum(self.inner_counts) + sum(self.outer_counts) != self.n_total:
            raise ValueError("ring counts must sum to n_total")
        if not all(a < b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError(f"radii must be strictly increasing, got {self.radii}")


def gen_clusters_2d(seed: int, spec: ClustersSpec = ClustersSpec()) -> Dataset:
    """Gaussian blob mixture; deterministic function of (seed, spec)."""
    rng = np.random.default_rng(seed)
    rows, labels, kinds = [], [], []
    for comp in spec.components:
        pts = np.asarray(comp.center) + comp.sigma * rng.standard_normal((comp.count, 2))
        rows.append(pts)
        labels.extend([comp.label] * comp.count)
        kinds.extend([comp.kind] * comp.count)
    kinds = np.array(kinds)
    return Dataset(
        features=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        n_classes=2,
        groups={"majority": np.flatnonzero(kinds == "majority"),
                "subcluster": np.flatnonzero(kinds == "subcluster")},
        provenance=f"gen_clusters_2d(seed={seed})",
        seed=seed,
    )


def gen_rings_2d(seed: int, spec: RingsSpec = RingsSpec()) -> Dataset:
    """Concentric noisy rings; uniform angles, Gaussian radial noise."""
    rng = np.random.default_rng(seed)
    counts = (*spec.inner_counts, *spec.outer_counts)
    rows, labels, region = [], [], []
    for ring, (count, radius, cls) in enumerate(
            zip(counts, spec.radii, spec.ring_classes)):
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        r = radius + spec.noise_sigma * rng.standard_normal(count)
        rows.append(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
        labels.extend([cls] * count)
        region.extend(["inner" if ring < 2 else "outer"] * count)
    region = np.array(region)
    return Dataset(
        features=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        n_classes=2,
        groups={"inner": np.flatnonzero(region == "inner"),
                "outer": np.flatnonzero(region == "outer")},
        provenance=f"gen_rings_2d(seed={seed})",
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
        raise FormatError(f"count mismatch: {n} images vs {ln} labels")

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
    accepted.  Malformed or multi-hot lines fail with their line number.
    """
    rows, labels = [], []
    with open(path) as fh:
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

    A file that ends early, or holds a split or group index outside
    [0, n), raises :class:`FormatError` naming the byte offset.
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
    features = r.array("<f8", n * d, "features")
    labels = r.array("<i8", n, "labels")
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

    def array(self, dtype, count, what):
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize, what),
                             dtype=dtype)

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
