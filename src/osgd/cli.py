"""Command-line entry point.

Subcommands: train, sweep-q, verify, gamma, gamma-curve, data, analyze.
Everything is a thin wrapper over the library; outputs are CSV files or
plain text on stdout.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import analysis, coeffs, harness
from .config import build_dataset, build_objective, load_config
from .data import (gen_clusters_2d, gen_rings_2d, load_idx, load_semeion,
                   save_cache)


def _cmd_gamma(args):
    use_float = args.float or args.n > coeffs.EXACT_N_LIMIT
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "gamma_exact_num", "gamma_exact_den", "gamma_float"])
        if use_float:
            approx = coeffs.gamma_weights_float(args.n, args.s, args.q)
            for j, val in enumerate(approx, start=1):
                writer.writerow([j, "", "", repr(float(val))])
        else:
            gw = coeffs.gamma_weights(args.n, args.s, args.q)
            for j, (frac, val) in enumerate(zip(gw.exact, gw.approx), start=1):
                writer.writerow([j, frac.numerator, frac.denominator,
                                 repr(float(val))])
    print(f"wrote {args.n} weights to {args.out}")
    return 0


def _cmd_gamma_curve(args):
    curve = coeffs.gamma_rescaled_curve(args.n, args.s, args.q)
    limit_is_constant = args.q == args.s
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "n_gamma", "gamma_limit", "beta_gap"])
        for z, val in zip(curve.z_grid, curve.values):
            if limit_is_constant:
                writer.writerow([repr(float(z)), repr(float(val)),
                                 repr(float(args.s)), ""])
                continue
            if 0.0 < z < 1.0:
                limit = coeffs.gamma_asymptotic(float(z), args.s, args.q)
                gap = (1.0 - limit / args.s
                       - coeffs.beta_cdf(float(z), args.q, args.s - args.q))
                writer.writerow([repr(float(z)), repr(float(val)),
                                 repr(limit), repr(gap)])
            else:
                writer.writerow([repr(float(z)), repr(float(val)), "", ""])
    print(f"wrote curve ({'float' if curve.approximate else 'exact'} path) "
          f"to {args.out}")
    return 0


def _cmd_verify(args):
    if args.what == "unbiasedness":
        worst = harness.unbiasedness_deviation(args.seed, args.n, args.s,
                                               args.q, args.trials)
        print(f"max componentwise deviation over {args.trials} trials: "
              f"{worst:.3e}")
        return 0 if worst <= harness.UNBIASEDNESS_TOL else 1
    report = harness.run_verification_suite(corrupt=args.corrupt)
    print(harness.report_to_json(report))
    if not report["all_passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_train(args):
    cfg = load_config(args.config, overrides=args.override)
    result = harness.run_experiment(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    records_path = os.path.join(cfg.outdir, f"{cfg.name}-records.csv")
    summary_path = os.path.join(cfg.outdir, f"{cfg.name}-summary.csv")
    harness.write_records_csv(result.records, records_path)
    summary = result.summary()
    harness.write_summary_csv([summary], summary_path)
    if args.save_params:
        for run in result.runs:
            if run.final_theta is not None:
                np.save(os.path.join(cfg.outdir,
                                     f"{cfg.name}-seed{run.seed}-theta.npy"),
                        run.final_theta)
    print(f"{cfg.name}: mean test error "
          f"{summary['mean_test_err']:.3f} ({summary['std_test_err']:.3f}) "
          f"over {len(cfg.seeds)} seed(s)")
    if summary["failed_seeds"]:
        print(f"failed seeds: {summary['failed_seeds']}", file=sys.stderr)
    print(f"wrote {records_path} and {summary_path}")
    return 0


def _cmd_sweep_q(args):
    cfg = load_config(args.config, overrides=args.override)
    q_values = [int(tok) for tok in args.q_values.split(",") if tok]
    summaries = harness.sweep_q(cfg, q_values)
    os.makedirs(cfg.outdir, exist_ok=True)
    out = os.path.join(cfg.outdir, f"{cfg.name}-sweep-q.csv")
    harness.write_summary_csv([summaries[q] for q in q_values], out)
    for q in q_values:
        s = summaries[q]
        print(f"q={q:>4}: mean test error {s['mean_test_err']:.3f} "
              f"({s['std_test_err']:.3f})")
    print(f"wrote {out}")
    return 0


def _cmd_data(args):
    if args.what == "gen-rings":
        ds = gen_rings_2d(args.seed)
    elif args.what == "gen-clusters":
        ds = gen_clusters_2d(args.seed)
    elif args.what == "import-idx":
        if not (args.images and args.labels):
            print("import-idx needs --images and --labels", file=sys.stderr)
            return 2
        ds = load_idx(args.images, args.labels)
    elif args.what == "import-semeion":
        if not args.path:
            print("import-semeion needs --path", file=sys.stderr)
            return 2
        ds = load_semeion(args.path)
    else:
        raise ValueError(args.what)
    save_cache(ds, args.out)
    print(f"wrote {ds.n} rows x {ds.d} features ({ds.n_classes} classes) "
          f"to {args.out}")
    return 0


def _cmd_analyze(args):
    if args.what == "bound-term":
        value = analysis.concentration_term(args.M, args.s, args.q, args.n,
                                            args.delta)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["M", "s", "q", "n", "delta", "bound_term"])
            writer.writerow([args.M, args.s, args.q, args.n, args.delta,
                             repr(value)])
        print(f"bound term: {value!r} (wrote {args.out})")
        return 0
    if args.what == "gap":
        history = [float(row[args.column])
                   for row in csv.DictReader(open(args.history))]
        gaps = analysis.optimality_gap(history, args.star)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "running_min_gap"])
            for t, g in enumerate(gaps):
                writer.writerow([t, repr(float(g))])
        print(f"wrote {len(gaps)} gap values to {args.out}")
        return 0
    # moreau: envelope gradient norm at a saved parameter vector
    if not (args.config and args.theta):
        print("analyze moreau needs --config and --theta", file=sys.stderr)
        return 2
    cfg = load_config(args.config, overrides=args.override)
    ds = build_dataset(cfg.data, split_seed=cfg.seeds[0])
    obj = build_objective(cfg, ds)
    theta = np.load(args.theta)
    Xtr, ytr = ds.split("train")
    s = min(cfg.opt.batch_size, Xtr.shape[0])
    gamma = coeffs.gamma_weights(Xtr.shape[0], s, cfg.opt.initial_q(s))
    mcfg = analysis.MoreauConfig(rho_hat=args.rho_hat, inner_tol=args.inner_tol)
    value = analysis.moreau_grad_norm(obj, theta, Xtr, ytr, gamma, mcfg)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho_hat", "inner_tol", "moreau_grad_norm"])
        writer.writerow([args.rho_hat, args.inner_tol, repr(value)])
    print(f"envelope gradient norm: {value!r} (wrote {args.out})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="osgd",
        description="Top-q ordered minibatch optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="emit exact/float selection weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--float", action="store_true",
                   help="log-space float weights instead of exact rationals")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("gamma-curve",
                       help="emit the rescaled weight curve and its limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gamma_curve)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("what", nargs="?", default="all",
                   choices=["all", "unbiasedness"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None,
                   help="negative-control hook, e.g. gamma-sum")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("train", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VAL")
    p.add_argument("--save-params", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("sweep-q", help="repeat an osgd or oadam experiment "
                       "across q values")
    p.add_argument("--config", required=True)
    p.add_argument("--q-values", required=True,
                   help="comma-separated q values")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VAL")
    p.set_defaults(fn=_cmd_sweep_q)

    p = sub.add_parser("data", help="generate or import datasets")
    p.add_argument("what", choices=["gen-rings", "gen-clusters",
                                    "import-idx", "import-semeion"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images")
    p.add_argument("--labels")
    p.add_argument("--path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_data)

    p = sub.add_parser("analyze", help="stationarity / gap / bound diagnostics")
    p.add_argument("what", choices=["moreau", "gap", "bound-term"])
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--s", type=int, default=64)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--history", help="records CSV for gap analysis")
    p.add_argument("--column", default="train_ordered_loss")
    p.add_argument("--star", type=float, default=0.0)
    p.add_argument("--config", help="run config for moreau analysis")
    p.add_argument("--override", action="append", default=[])
    p.add_argument("--theta", help=".npy parameter vector for moreau")
    p.add_argument("--rho-hat", type=float, default=10.0)
    p.add_argument("--inner-tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
