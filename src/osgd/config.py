"""Run configuration: dataclasses plus a dotted key=value file format.

Config files are plain text, one ``dotted.key = value`` per line, with
``#`` comments.  The same syntax is accepted for command-line overrides.
Defaults follow the fixed hyper-parameter setting used throughout the
experiments: batch size 64, learning rate 0.01 with a 10x drop entering
the tenth epoch, momentum 0.9, weight decay 1e-4, adaptive q.

Each setting is declared once, on its dataclass field (see ``_settings``):
its default, its checks and its one dotted key, the section prefix plus
the field name except for ``loss.kind`` and ``reg.l2``.  The checks run
when a config is built, from a file or a constructor, and name the key.

A setting is kept when it selects an algorithm variant (the q rule,
batching, schedule, momentum, model, loss), even where only tests use it.
Choices no experiment varies are constants of the code that reads them:
every epoch is logged, splits are stratified, models have biases, and
the Adam arms use ``optimizers.adam``'s moments and eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._settings import (AT_LEAST_1, NONNEG, NONNEG_ENTRIES, UNIT, Section,
                        from_flat, is_int, one_of, setting)
from .data import (Dataset, gen_clusters_2d, gen_rings_2d, load_idx,
                   load_semeion, split_dataset)
from .data import load_cache  # noqa: F401 (tracer only, ROADMAP 1a)
from .objectives import (ACTIVATION_KINDS, LOSS_KINDS, MODEL_KINDS,
                         FeedforwardModel, Objective)
from .optimizers import ScheduleSpec


def _files(dc, *keys):
    """The ``data.*`` file settings ``keys``, each checked to be set."""
    unset = " and ".join(f"data.{key}" for key in keys if not getattr(dc, key))
    if unset:
        raise ValueError(f"data.kind {dc.kind} needs {unset} set")
    return [getattr(dc, key) for key in keys]


# data.kind -> the configured rows, generated or read, without a split.
# Each entry looks its loader up when called, so a loader patched on this
# module is the one that runs.
_LOADERS = {
    "clusters": lambda dc: gen_clusters_2d(dc.seed),
    "rings": lambda dc: gen_rings_2d(dc.seed),
    "semeion": lambda dc: load_semeion(*_files(dc, "path")),
    "idx": lambda dc: load_idx(*_files(dc, "images", "labels")),
}
DATASET_KINDS = tuple(_LOADERS)
OPT_KINDS = ("osgd", "sgd", "oadam", "adam")
# Minibatch SGD and Adam: the ordered step with q pinned to the batch length.
BASELINE_KINDS = ("sgd", "adam")

# opt.q is "adaptive" or an integer
_Q = (lambda raw: raw if raw == "adaptive" else int(raw),
      (lambda v: v == "adaptive" or is_int(v),
       "must be an integer or 'adaptive'"))


@dataclass(frozen=True)
class DataConfig(Section):
    _prefix = "data."
    kind: str = setting("clusters", one_of(DATASET_KINDS))
    path: str = setting("")            # semeion file
    images: str = setting("")          # idx image file
    labels: str = setting("")          # idx label file
    seed: int = setting(0, NONNEG)     # clusters/rings generator seed
    # 0 disables splitting: train = test = all rows
    test_fraction: float = setting(0.0, UNIT)

    def split(self, ds: Dataset, seed: int) -> Dataset:
        """``ds`` with the stratified train/test split of ``seed``, drawn
        over every row whatever splits ``ds`` already has.  With
        test_fraction = 0 ``ds`` comes back unchanged (see
        :meth:`Dataset.split` for data without splits)."""
        if self.test_fraction > 0.0:
            return split_dataset(ds, self.test_fraction, seed, stratified=True)
        return ds


@dataclass(frozen=True)
class ModelConfig(Section):
    _prefix = "model."
    kind: str = setting("linear", one_of(MODEL_KINDS))
    hidden: tuple[int, ...] = setting(
        (), (lambda v: min(v, default=1) >= 1, "widths must be at least 1"))
    activation: str = setting("tanh", one_of(ACTIVATION_KINDS))

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("model.kind mlp needs at least one width in "
                             "model.hidden, got none")
        if self.kind == "linear" and self.hidden:
            raise ValueError(f"model.hidden must be empty for model.kind "
                             f"linear, got {self.hidden}")


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

    def __post_init__(self):
        super().__post_init__()
        if self.q != "adaptive" and self.q > self.batch_size:
            raise ValueError(f"opt.q must be at most opt.batch_size = "
                             f"{self.batch_size}, got {self.q}")

    def initial_q(self, s: int) -> int:
        """q of the first step at batch size s: s for baselines and adaptive
        q.  A fixed q is at most opt.batch_size, and s is below that only
        when the train split is."""
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
        (0,), (bool, "must name at least one seed"), NONNEG_ENTRIES,
        (lambda v: len(set(v)) == len(v), "must not repeat a seed"))
    outdir: str = setting("runs")
    opt: OptConfig = OptConfig()


def parse_config_text(text: str) -> dict:
    """Flat dict of dotted keys to raw string values; a key may appear on
    one line only."""
    flat, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ValueError(f"line {lineno}: {key} repeats line {lines[key]}")
        flat[key], lines[key] = value, lineno
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
    cfg = from_flat(RunConfig(), flat)
    if flat:
        raise ValueError(f"unknown config keys: {sorted(flat)}")
    return cfg


def build_dataset(dc: DataConfig) -> Dataset:
    """The configured rows, generated or read, without a split: each run
    takes its own with ``dc.split``."""
    return _LOADERS[dc.kind](dc)


def build_objective(cfg: RunConfig, dataset: Dataset) -> Objective:
    d_out = 1 if cfg.loss_kind == "binary-cross-entropy" else dataset.n_classes
    model = FeedforwardModel(dataset.d, d_out, hidden=cfg.model.hidden,
                             activation=cfg.model.activation)
    return Objective(model, cfg.loss_kind, l2=cfg.l2)
