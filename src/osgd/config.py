"""Run configuration: dataclasses plus a dotted key=value file format.

Config files are plain text, one ``dotted.key = value`` per line, with
``#`` comments.  The same syntax is accepted for command-line overrides.
Defaults follow the fixed hyper-parameter setting used throughout the
experiments: batch size 64, learning rate 0.01 with a 10x drop entering
the tenth epoch, momentum 0.9, weight decay 1e-4, adaptive q.

Each setting is declared once, on its dataclass field (see ``_settings``):
its default, its checks and its dotted key, the section prefix plus the
field name except for ``loss.kind`` and ``reg.l2``.  The checks run when a
config is built, from a file or a constructor, and name the key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._settings import (AT_LEAST_1, NONNEG, NONNEG_ENTRIES, POSITIVE_FINITE,
                        UNIT, Section, from_flat, is_int, one_of, setting)
from .data import (Dataset, gen_clusters_2d, gen_rings_2d, load_cache,
                   load_idx, load_semeion, split_dataset)
from .objectives import (_ACTIVATIONS, LOSS_KINDS, MODEL_KINDS, Objective,
                         make_model)
from .optimizers import ScheduleSpec

DATASET_KINDS = ("clusters", "rings", "semeion", "idx", "cache")
OPT_KINDS = ("osgd", "sgd", "oadam", "adam")
# Minibatch SGD and Adam: the ordered step with q pinned to the batch length.
BASELINE_KINDS = ("sgd", "adam")

# opt.q is "adaptive" or an integer, also spelled fixed:N in config files
_Q = (lambda raw: raw if raw == "adaptive" else int(raw.removeprefix("fixed:")),
      (lambda v: v == "adaptive" or is_int(v),
       "must be an integer or 'adaptive'"))


@dataclass(frozen=True)
class DataConfig(Section):
    _prefix = "data."
    kind: str = setting("clusters", one_of(DATASET_KINDS))
    path: str = setting("")            # semeion/cache file
    images: str = setting("")          # idx image file
    labels: str = setting("")          # idx label file
    seed: int = setting(0, NONNEG)     # generator seed; build_dataset's split
    # 0 disables splitting: train = test = all rows
    test_fraction: float = setting(0.0, UNIT)
    stratified: bool = setting(True)

    def split(self, ds: Dataset, seed: int) -> Dataset:
        """``ds`` with the train/test split of ``seed``, drawn over every
        row whatever splits ``ds`` already has; with test_fraction = 0
        every row is both splits."""
        if self.test_fraction > 0.0:
            return split_dataset(ds, self.test_fraction, seed,
                                 stratified=self.stratified)
        return ds.with_default_splits()


@dataclass(frozen=True)
class ModelConfig(Section):
    _prefix = "model."
    kind: str = setting("linear", one_of(MODEL_KINDS))
    hidden: tuple[int, ...] = setting(
        (), (lambda v: min(v, default=1) >= 1, "widths must be at least 1"))
    activation: str = setting("tanh", one_of(tuple(_ACTIVATIONS)))
    bias: bool = setting(True)

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("model.kind mlp needs at least one width in "
                             "model.hidden, got none")


@dataclass(frozen=True)
class OptConfig(Section):
    _prefix = "opt."
    kind: str = setting("osgd", one_of(OPT_KINDS))
    momentum: float = setting(0.9, UNIT)
    batch_size: int = setting(64, AT_LEAST_1)
    q: str | int = setting("adaptive", (lambda v: v == "adaptive" or v >= 1,
                                        "must be at least 1"), as_type=_Q)
    # "shuffle" (epoch-wise) or "iid" (per step)
    batching: str = setting("shuffle", one_of(("shuffle", "iid")))
    schedule: ScheduleSpec = ScheduleSpec(kind="step-decay", decay_epochs=(9,))
    beta1: float = setting(0.9, UNIT)
    beta2: float = setting(0.999, UNIT)
    eps: float = setting(1e-8, POSITIVE_FINITE)

    def initial_q(self, s: int) -> int:
        """q of the first step at batch size s: s for baselines and adaptive q."""
        if self.kind in BASELINE_KINDS or self.q == "adaptive":
            return s
        return min(int(self.q), s)


@dataclass(frozen=True)
class RunConfig(Section):
    name: str = setting("run")
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig()
    loss_kind: str = setting("binary-cross-entropy", one_of(LOSS_KINDS),
                             key="loss.kind")
    l2: float = setting(1e-4, (lambda v: math.isfinite(v) and v >= 0,
                               "must be finite and nonnegative"), key="reg.l2")
    epochs: int = setting(10, NONNEG)
    seeds: tuple[int, ...] = setting(
        (0,), (bool, "must name at least one seed"), NONNEG_ENTRIES)
    eval_every: int = setting(1, AT_LEAST_1)
    outdir: str = setting("runs")
    opt: OptConfig = OptConfig()


def parse_config_text(text: str) -> dict:
    """Flat dict of dotted keys to raw string values."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


def load_config(path, overrides=()) -> RunConfig:
    """RunConfig from a config file plus optional ``key=value`` overrides."""
    with open(path) as fh:
        flat = parse_config_text(fh.read())
    for item in overrides:
        flat.update(parse_config_text(item))
    return config_from_flat(flat)


def config_from_flat(flat: dict) -> RunConfig:
    """Build a RunConfig from dotted keys, rejecting unknown ones."""
    flat = dict(flat)
    if "opt.lr" in flat:  # an alias of opt.schedule.base_lr, which wins
        flat.setdefault("opt.schedule.base_lr", flat.pop("opt.lr"))
    cfg = from_flat(RunConfig(), flat)
    if flat:
        raise ValueError(f"unknown config keys: {sorted(flat)}")
    return cfg


def build_dataset(dc: DataConfig) -> Dataset:
    """Materialize the configured dataset with the split of ``dc.seed``."""
    return dc.split(_load_rows(dc), dc.seed)


def _load_rows(dc: DataConfig) -> Dataset:
    """The configured rows, generated or read, without a split."""
    if dc.kind == "clusters":
        ds = gen_clusters_2d(dc.seed)
    elif dc.kind == "rings":
        ds = gen_rings_2d(dc.seed)
    elif dc.kind == "semeion":
        ds = load_semeion(dc.path)
    elif dc.kind == "idx":
        ds = load_idx(dc.images, dc.labels)
    elif dc.kind == "cache":
        ds = load_cache(dc.path)
    else:
        raise ValueError(f"unknown dataset kind {dc.kind!r}")
    return ds


def build_objective(cfg: RunConfig, dataset: Dataset) -> Objective:
    d_out = 1 if cfg.loss_kind == "binary-cross-entropy" else dataset.n_classes
    model = make_model(cfg.model.kind, d_in=dataset.d, d_out=d_out,
                       hidden=cfg.model.hidden, activation=cfg.model.activation,
                       bias=cfg.model.bias)
    return Objective(model, cfg.loss_kind, l2=cfg.l2)
