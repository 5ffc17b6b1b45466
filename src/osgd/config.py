"""Run configuration: dataclasses plus a dotted key=value file format.

Config files are plain text, one ``dotted.key = value`` per line, with
``#`` comments.  The same syntax is accepted for command-line overrides.
Defaults follow the fixed hyper-parameter setting used throughout the
experiments: batch size 64, learning rate 0.01 with a 10x drop entering
the tenth epoch, momentum 0.9, weight decay 1e-4, adaptive q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (ClustersSpec, Dataset, RingsSpec, gen_clusters_2d,
                   gen_rings_2d, load_cache, load_idx, load_semeion,
                   split_dataset)
from .objectives import Objective, make_model
from .optimizers import ScheduleSpec

DATASET_KINDS = ("clusters", "rings", "semeion", "idx", "cache")
OPT_KINDS = ("osgd", "sgd", "oadam", "adam")
# Minibatch SGD and Adam: the ordered step with q pinned to the batch length.
BASELINE_KINDS = ("sgd", "adam")


def _require_int(key, value):
    """Reject a non-integer (a float such as 2.5 or 2.0, a bool, a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DataConfig:
    kind: str = "clusters"
    path: str = ""            # semeion/cache file
    images: str = ""          # idx image file
    labels: str = ""          # idx label file
    seed: int = 0             # generator seed for synthetic kinds
    test_fraction: float = 0.0  # 0 disables splitting: train = test = all rows
    stratified: bool = True

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "linear"
    hidden: tuple[int, ...] = ()
    activation: str = "tanh"
    bias: bool = True


@dataclass(frozen=True)
class OptConfig:
    kind: str = "osgd"
    momentum: float = 0.9
    batch_size: int = 64
    q: str | int = "adaptive"
    batching: str = "shuffle"  # "shuffle" (epoch-wise) or "iid" (per step)
    schedule: ScheduleSpec = ScheduleSpec(kind="step-decay", base_lr=0.01,
                                          decay_epochs=(9,), decay_factor=0.1)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in OPT_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.batching not in ("shuffle", "iid"):
            raise ValueError(f"unknown batching mode {self.batching!r}")
        if self.q != "adaptive":
            if isinstance(self.q, str):
                raise ValueError(f"opt.q must be an integer or 'adaptive', "
                                 f"got {self.q!r}")
            _require_int("opt.q", self.q)
            if self.q < 1:
                raise ValueError(f"opt.q must be at least 1, got {self.q}")
        _require_int("opt.batch_size", self.batch_size)
        if self.batch_size < 1:
            raise ValueError(f"opt.batch_size must be at least 1, "
                             f"got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"opt.momentum must lie in [0, 1), "
                             f"got {self.momentum}")

    def initial_q(self, s: int) -> int:
        """q of the first step at batch size s: s for baselines and adaptive q."""
        if self.kind in BASELINE_KINDS or self.q == "adaptive":
            return s
        return min(int(self.q), s)


@dataclass(frozen=True)
class RunConfig:
    name: str = "run"
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig()
    loss_kind: str = "binary-cross-entropy"
    l2: float = 1e-4
    epochs: int = 10
    seeds: tuple[int, ...] = (0,)
    eval_every: int = 1
    outdir: str = "runs"
    opt: OptConfig = OptConfig()

    def __post_init__(self):
        _require_int("epochs", self.epochs)
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        _require_int("eval_every", self.eval_every)
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, "
                             f"got {self.eval_every}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"reg.l2 must be finite and nonnegative, "
                             f"got {self.l2}")


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


def _scalar(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for conv in (int, float):
        try:
            return conv(raw)
        except ValueError:
            pass
    return raw


def _int_tuple(raw: str):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def config_from_flat(flat: dict) -> RunConfig:
    """Build a RunConfig from dotted keys, rejecting unknown ones."""
    flat = dict(flat)

    def pop(key, default, conv=_scalar):
        if key in flat:
            return conv(flat.pop(key))
        return default

    data = DataConfig(
        kind=pop("data.kind", "clusters"),
        path=pop("data.path", "", str),
        images=pop("data.images", "", str),
        labels=pop("data.labels", "", str),
        seed=pop("data.seed", 0),
        test_fraction=pop("data.test_fraction", 0.0, float),
        stratified=pop("data.stratified", True),
    )
    model = ModelConfig(
        kind=pop("model.kind", "linear"),
        hidden=pop("model.hidden", (), _int_tuple),
        activation=pop("model.activation", "tanh"),
        bias=pop("model.bias", True),
    )
    # opt.lr is an alias of opt.schedule.base_lr, which wins if both are set
    schedule = ScheduleSpec(
        kind=pop("opt.schedule.kind", "step-decay"),
        base_lr=pop("opt.schedule.base_lr", pop("opt.lr", 0.01, float), float),
        decay_epochs=pop("opt.schedule.decay_epochs", (9,), _int_tuple),
        decay_factor=pop("opt.schedule.decay_factor", 0.1, float),
    )
    q_raw = pop("opt.q", "adaptive")
    if isinstance(q_raw, str) and q_raw.startswith("fixed:"):
        q_raw = _scalar(q_raw.split(":", 1)[1])
    opt = OptConfig(
        kind=pop("opt.kind", "osgd"),
        momentum=pop("opt.momentum", 0.9, float),
        batch_size=pop("opt.batch_size", 64),
        q=q_raw,
        batching=pop("opt.batching", "shuffle"),
        schedule=schedule,
        beta1=pop("opt.beta1", 0.9, float),
        beta2=pop("opt.beta2", 0.999, float),
        eps=pop("opt.eps", 1e-8, float),
    )
    cfg = RunConfig(
        name=pop("name", "run", str),
        data=data,
        model=model,
        loss_kind=pop("loss.kind", "binary-cross-entropy", str),
        l2=pop("reg.l2", 1e-4, float),
        epochs=pop("epochs", 10),
        seeds=pop("seeds", (0,), _int_tuple),
        eval_every=pop("eval_every", 1),
        outdir=pop("outdir", "runs", str),
        opt=opt,
    )
    if flat:
        raise ValueError(f"unknown config keys: {sorted(flat)}")
    return cfg


def build_dataset(dc: DataConfig, split_seed=None) -> Dataset:
    """Materialize the configured dataset, applying the train/test split.

    With test_fraction = 0 the full dataset serves as both splits, which is
    what the 2-D qualitative experiments use.  Otherwise the split is drawn
    with ``split_seed`` (the runner passes the run seed), else ``dc.seed``.
    """
    if dc.kind == "clusters":
        ds = gen_clusters_2d(dc.seed, ClustersSpec())
    elif dc.kind == "rings":
        ds = gen_rings_2d(dc.seed, RingsSpec())
    elif dc.kind == "semeion":
        ds = load_semeion(dc.path)
    elif dc.kind == "idx":
        ds = load_idx(dc.images, dc.labels)
    elif dc.kind == "cache":
        ds = load_cache(dc.path)
    else:
        raise ValueError(f"unknown dataset kind {dc.kind!r}")
    if dc.test_fraction > 0.0:
        seed = split_seed if split_seed is not None else dc.seed
        ds = split_dataset(ds, dc.test_fraction, seed, stratified=dc.stratified)
    elif not ds.splits:
        ds = ds.with_splits({"train": np.arange(ds.n), "test": np.arange(ds.n)})
    return ds


def build_objective(cfg: RunConfig, dataset: Dataset) -> Objective:
    d_out = 1 if cfg.loss_kind == "binary-cross-entropy" else dataset.n_classes
    model = make_model(cfg.model.kind, d_in=dataset.d, d_out=d_out,
                       hidden=cfg.model.hidden, activation=cfg.model.activation,
                       bias=cfg.model.bias)
    return Objective(model, cfg.loss_kind, l2=cfg.l2)
