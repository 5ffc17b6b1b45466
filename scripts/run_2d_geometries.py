#!/usr/bin/env python3
"""Qualitative 2-D comparison: ordered vs minibatch SGD on rings and clusters.

Trains both optimizers with the shipped configs (configs/rings_osgd.cfg and
configs/clusters_osgd.cfg; the baseline arm overrides opt.kind = sgd) and
reports overall plus region accuracies: the inner rings and the mid-field
sub-clusters are where the ordered variant is expected to win.

Writes per-seed CSV rows next to the printed table.

Usage: python scripts/run_2d_geometries.py [--seeds 10] [--outdir runs-2d]
"""
import argparse
import csv
import os
import sys

import numpy as np

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from osgd.analysis import zero_one_error
from osgd.config import build_dataset, build_objective, load_config
from osgd.harness import format_comparison_table, run_experiment

# (table label, config file, focus group of the dataset)
GEOMETRIES = (("rings/inner", "rings_osgd.cfg", "inner"),
              ("clusters/sub", "clusters_osgd.cfg", "subcluster"))


def run_geometry(config_file, seeds, focus_group):
    rows = []
    medians = {}
    for kind in ("sgd", "osgd"):
        cfg = load_config(os.path.join(CONFIG_DIR, config_file),
                          overrides=[f"opt.kind = {kind}",
                                     "seeds = " + ", ".join(map(str, seeds))])
        ds = build_dataset(cfg.data)
        obj = build_objective(cfg, ds)
        idx = ds.groups[focus_group]
        focus, overall = [], []
        for run in run_experiment(cfg, ds).runs:
            if run.failed:
                print(f"{kind} seed {run.seed} failed: {run.error}",
                      file=sys.stderr)
                continue
            focus.append(1.0 - zero_one_error(obj, run.final_theta,
                                              ds.features[idx],
                                              ds.labels[idx]) / 100.0)
            overall.append(1.0 - zero_one_error(obj, run.final_theta,
                                                ds.features, ds.labels) / 100.0)
            rows.append({"optimizer": kind, "seed": run.seed,
                         "focus_acc": focus[-1], "overall_acc": overall[-1]})
        medians[kind] = (float(np.median(focus)), float(np.median(overall)))
    return rows, medians, cfg.model.kind


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--outdir", default="runs-2d")
    args = parser.parse_args()
    seeds = range(args.seeds)
    os.makedirs(args.outdir, exist_ok=True)

    table_rows = []
    for name, config_file, group in GEOMETRIES:
        rows, medians, model = run_geometry(config_file, seeds, group)
        path = os.path.join(args.outdir, name.replace("/", "-") + ".csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        table_rows.append({
            "dataset": name, "model": model,
            "base_mean": 100.0 * (1.0 - medians["sgd"][0]),
            "base_std": 0.0,
            "ord_mean": 100.0 * (1.0 - medians["osgd"][0]),
            "ord_std": 0.0,
        })
        print(f"{name}: ordered focus acc {medians['osgd'][0]:.2f} vs "
              f"baseline {medians['sgd'][0]:.2f} (median over {args.seeds} "
              f"seeds); rows -> {path}")
    print()
    print("Focus-region error rates (%):")
    print(format_comparison_table(table_rows))


if __name__ == "__main__":
    main()
