"""Command-line entry point.

Subcommands: train, sweep-q, verify, gamma, gamma-curve, analyze.
Everything is a thin wrapper over the library; outputs are CSV files or
plain text on stdout.  Rows reach a command only through a config's
``data.*`` keys and ``build_dataset``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis, coeffs, harness
from .config import build_dataset, build_objective, load_config
from .ordered_loss import ResourceError


def _cmd_gamma(args):
    if args.float or not coeffs.uses_exact(args.n):
        rows = ([j, "", "", repr(float(val))] for j, val in enumerate(
            coeffs.gamma_weights_float(args.n, args.s, args.q), start=1))
    else:
        # N_j / C(n, s) in lowest terms (0 as 0/1), and its one rounding
        nums, den = coeffs.gamma_weight_numerators(args.n, args.s, args.q)
        rows = []
        for j, num in enumerate(nums, start=1):
            g = math.gcd(num, den)
            rows.append([j, num // g, den // g, repr(num / den)])
    harness.write_csv(args.out, ["j", "gamma_exact_num", "gamma_exact_den",
                                 "gamma_float"], rows)
    print(f"wrote {args.n} weights to {args.out}")
    return 0


def _curve_rows(curve, s, q):
    """z, n * gamma, and where defined the limit curve and its gap to the
    Beta CDF: the limit is the constant s when q = s."""
    for z, val in zip(curve.z_grid.tolist(), curve.values.tolist()):
        if q == s:
            yield [repr(z), repr(val), repr(float(s)), ""]
        elif 0.0 < z < 1.0:
            limit = coeffs.gamma_asymptotic(z, s, q)
            yield [repr(z), repr(val), repr(limit),
                   repr(1.0 - limit / s - coeffs.beta_cdf(z, q, s - q))]
        else:
            yield [repr(z), repr(val), "", ""]


def _cmd_gamma_curve(args):
    curve = coeffs.gamma_rescaled_curve(args.n, args.s, args.q)
    harness.write_csv(args.out, ["z", "n_gamma", "gamma_limit", "beta_gap"],
                      _curve_rows(curve, args.s, args.q))
    print(f"wrote curve ({'float' if curve.approximate else 'exact'} path) "
          f"to {args.out}")
    return 0


def _cmd_verify(args):
    report = harness.run_verification_suite(corrupt=args.corrupt)
    print(json.dumps(report, indent=2))
    if not report["all_passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_unbiasedness(args):
    worst = harness.unbiasedness_deviation(args.seed, args.n, args.s, args.q,
                                           args.trials)
    print(f"max componentwise deviation over {args.trials} trials: "
          f"{worst:.3e}")
    return 0 if worst <= harness.UNBIASEDNESS_TOL else 1


def _report(label, result, prefix=""):
    """Print the mean (std) test error over the n, or 'k of n', completed
    seeds, and on stderr each failed seed with its reason, the list headed
    by ``prefix``.  True when some seed completed."""
    summary = result.summary()
    done, total = len(summary["final_test_errors"]), len(result.runs)
    print(f"{label}: mean test error {summary['mean_test_err']:.3f} "
          f"({summary['std_test_err']:.3f}) over "
          f"{total if done == total else f'{done} of {total}'} seed(s)")
    if summary["failed_seeds"]:
        print(f"{prefix}failed seeds: {summary['failed_seeds']}",
              file=sys.stderr)
        for run in result.runs:
            if run.failed:
                print(f"  seed {run.seed} failed: {run.error}",
                      file=sys.stderr)
    return done > 0


def _cmd_train(args):
    cfg = load_config(args.config, overrides=args.override)
    result = harness.run_experiment(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    records_path = os.path.join(cfg.outdir, f"{cfg.name}-records.csv")
    summary_path = os.path.join(cfg.outdir, f"{cfg.name}-summary.csv")
    harness.write_records_csv(result.records, records_path)
    harness.write_summary_csv([result.summary()], summary_path)
    if args.save_params:
        for run in result.runs:
            if run.final_theta is not None:
                np.save(os.path.join(cfg.outdir,
                                     f"{cfg.name}-seed{run.seed}-theta.npy"),
                        run.final_theta)
    completed = _report(cfg.name, result)
    print(f"wrote {records_path} and {summary_path}")
    return 0 if completed else 1


def _cmd_sweep_q(args):
    cfg = load_config(args.config, overrides=args.override)
    q_values = [int(tok) for tok in args.q_values.split(",") if tok]
    results = harness.sweep_q(cfg, q_values)
    os.makedirs(cfg.outdir, exist_ok=True)
    out = os.path.join(cfg.outdir, f"{cfg.name}-sweep-q.csv")
    harness.write_summary_csv([results[q].summary() for q in q_values], out)
    completed = [_report(f"q={q:>4}", results[q], prefix=f"q={q} ")
                 for q in q_values]
    print(f"wrote {out}")
    return 0 if all(completed) else 1  # 1: some q completed no seed


def _cmd_bound_term(args):
    value = analysis.concentration_term(args.M, args.s, args.q, args.n,
                                        args.delta)
    harness.write_csv(args.out, ["M", "s", "q", "n", "delta", "bound_term"],
                      [[args.M, args.s, args.q, args.n, args.delta,
                        repr(value)]])
    print(f"bound term: {value!r} (wrote {args.out})")
    return 0


def _cmd_gap(args):
    with open(args.history, newline="") as fh:
        reader = csv.DictReader(fh)
        if args.column not in (reader.fieldnames or ()):
            raise ValueError(f"{args.history} has no column {args.column!r}")
        history = [float(row[args.column]) for row in reader]
    gaps = analysis.optimality_gap(history, args.star)
    harness.write_csv(args.out, ["t", "running_min_gap"],
                      [[t, repr(float(g))] for t, g in enumerate(gaps)])
    print(f"wrote {len(gaps)} gap values to {args.out}")
    return 0


def _cmd_moreau(args):
    """Envelope gradient norm at a saved parameter vector, on the train
    split of the config's first seed."""
    cfg = load_config(args.config, overrides=args.override)
    ds = cfg.data.split(build_dataset(cfg.data), cfg.seeds[0])
    obj = build_objective(cfg, ds)
    theta = np.load(args.theta)
    n_params = obj.model.n_params
    if theta.shape != (n_params,):
        held = (f"{theta.size} parameters" if theta.ndim == 1
                else f"an array of shape {theta.shape}")
        raise ValueError(f"{args.theta} holds {held}; the configured model "
                         f"has {n_params}")
    Xtr, ytr = ds.split("train")
    s = min(cfg.opt.batch_size, Xtr.shape[0])
    gamma = coeffs.gamma_weights(Xtr.shape[0], s, cfg.opt.initial_q(s))
    mcfg = analysis.MoreauConfig(rho_hat=args.rho_hat, inner_tol=args.inner_tol)
    value = analysis.moreau_grad_norm(obj, theta, Xtr, ytr, gamma, mcfg)
    harness.write_csv(args.out,
                      ["rho_hat", "inner_tol", "moreau_grad_norm"],
                      [[args.rho_hat, args.inner_tol, repr(value)]])
    print(f"envelope gradient norm: {value!r} (wrote {args.out})")
    return 0


def _sizes(n=None, s=None, q=None):
    """A parent parser of --n/--s/--q; one without a default is required."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, value in (("--n", n), ("--s", s), ("--q", q)):
        parent.add_argument(flag, type=int, default=value,
                            required=value is None)
    return parent


def build_parser():
    """Each subcommand declares only the options its code reads, so a
    missing or foreign option is argparse's usage error (exit status 2);
    options that several share come from one parent parser each."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--override", action="append", default=[],
                        metavar="KEY=VAL")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    parser = argparse.ArgumentParser(
        prog="osgd",
        description="Top-q ordered minibatch optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sizes = _sizes()
    p = sub.add_parser("gamma", parents=[sizes, out],
                       help="emit exact/float selection weights")
    p.add_argument("--float", action="store_true",
                   help="log-space float weights instead of exact rationals")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("gamma-curve", parents=[sizes, out],
                       help="emit the rescaled weight curve and its limit")
    p.set_defaults(fn=_cmd_gamma_curve)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--corrupt", default=None, choices=harness.CORRUPT_HOOKS,
                   help="negative-control hook")
    p.set_defaults(fn=_cmd_verify)
    p = p.add_subparsers().add_parser("unbiasedness",
                                      parents=[_sizes(n=8, s=4, q=2)])
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_unbiasedness)

    p = sub.add_parser("train", parents=[config],
                       help="run a configured experiment")
    p.add_argument("--save-params", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("sweep-q", parents=[config], help="repeat an osgd or "
                       "oadam experiment across q values")
    p.add_argument("--q-values", required=True,
                   help="comma-separated q values")
    p.set_defaults(fn=_cmd_sweep_q)

    p = sub.add_parser("analyze",
                       help="stationarity / gap / bound diagnostics")
    analyze = p.add_subparsers(required=True)
    p = analyze.add_parser("bound-term",
                           parents=[_sizes(n=1000, s=64, q=4), out])
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(fn=_cmd_bound_term)
    p = analyze.add_parser("gap", parents=[out])
    p.add_argument("--history", required=True, help="records CSV")
    p.add_argument("--column", default="train_ordered_loss")
    p.add_argument("--star", type=float, default=0.0)
    p.set_defaults(fn=_cmd_gap)
    p = analyze.add_parser("moreau", parents=[config, out])
    p.add_argument("--theta", required=True, help=".npy parameter vector")
    p.add_argument("--rho-hat", type=float, default=10.0)
    p.add_argument("--inner-tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_moreau)

    return parser


def main(argv=None):
    """Run one subcommand.  An input it cannot read or use (a missing or
    malformed file, a bad config key or value, sizes whose enumeration
    exceeds the subset cap) is one line on stderr and exit status 2;
    ``train`` and ``sweep-q`` exit 1 when a configuration completes no
    seed."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is _cmd_unbiasedness and args.corrupt is not None:
        # given before the nested subcommand, it lands on the verify parser
        parser.error("argument --corrupt: not allowed with verify "
                     "unbiasedness")
    try:
        return args.fn(args)
    # FormatError is a ValueError; ResourceError a RuntimeError
    except (OSError, ValueError, ResourceError) as exc:
        print(f"osgd {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
