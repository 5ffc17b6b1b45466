#!/usr/bin/env python3
"""Desk-scale error-rate table on the Semeion digits: ordered vs baseline.

Runs linear multinomial logistic regression and a linear multiclass SVM
with the standard hyper-parameters of configs/semeion_logistic_osgd.cfg
(s=64, lr 0.01 dropped 10x entering the tenth epoch, momentum 0.9, weight
decay 1e-4, adaptive q) over ten seeded trials each, with a fresh 80/20
stratified split per seed, and prints a mean (std) comparison table with
relative improvements.

Needs the canonical 1593-row file, e.g. data/semeion.data.

Usage: python scripts/run_semeion_table.py [--path data/semeion.data]
       [--seeds 10] [--epochs 100] [--outdir runs-semeion]
"""
import argparse
import os
import sys

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "semeion_logistic_osgd.cfg")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from osgd.config import load_config
from osgd.data import load_semeion
from osgd.harness import (format_comparison_table, run_experiment,
                          write_records_csv)


def run_rows(ds_full, loss_kind, opt_kind, seeds, epochs, outdir):
    cfg = load_config(CONFIG, overrides=[
        f"name = semeion-{loss_kind}-{opt_kind}", f"loss.kind = {loss_kind}",
        f"opt.kind = {opt_kind}", f"epochs = {epochs}",
        "seeds = " + ", ".join(map(str, seeds))])
    result = run_experiment(cfg, ds_full)  # a fresh split per seed
    for run in result.runs:
        if run.failed:
            print(f"  seed {run.seed} diverged: {run.error}", file=sys.stderr)
    write_records_csv(result.records,
                      os.path.join(outdir, f"{cfg.name}-records.csv"))
    summary = result.summary()  # over completed seeds; std 0.0 for one
    return summary["mean_test_err"], summary["std_test_err"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--path", default="data/semeion.data")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--outdir", default="runs-semeion")
    args = parser.parse_args()
    if not os.path.exists(args.path):
        sys.exit(f"Semeion file not found at {args.path}; pass --path")
    ds_full = load_semeion(args.path)
    os.makedirs(args.outdir, exist_ok=True)
    seeds = range(args.seeds)

    rows = []
    for label, loss_kind in [("Logistic", "multinomial-cross-entropy"),
                             ("SVM", "multiclass-hinge")]:
        base = run_rows(ds_full, loss_kind, "sgd", seeds, args.epochs,
                        args.outdir)
        ordered = run_rows(ds_full, loss_kind, "osgd", seeds, args.epochs,
                           args.outdir)
        rows.append({"dataset": "Semeion", "model": label,
                     "base_mean": base[0], "base_std": base[1],
                     "ord_mean": ordered[0], "ord_std": ordered[1]})
    print("Test errors (%), mean (std) over "
          f"{args.seeds} trials, {args.epochs} epochs:")
    print(format_comparison_table(rows))


if __name__ == "__main__":
    main()
