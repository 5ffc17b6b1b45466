#!/usr/bin/env python3
"""The osgd benchmark: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py [--workload geometry-2d|digits-table|oracle-certify|all]
                         [--seed 0] [--seconds 40] [--trace 0|1]
                         [--record-digests]

Run from the root of a checkout.  Each measured pass is a fresh
interpreter (``bench/worker.py``) with BLAS pinned to one thread; passes
repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics, each a median over the
untraced passes.  ``wall_ref`` is a pass's time in units of the reference
round timed around it in the same process (``ref_s``, see
``bench/worker.py``), and ``steps_per_ref`` its top-q steps per such
unit: on a shared host whole passes run slow for minutes while other
tenants load the machine, and seconds then vary by more than a change
worth detecting, while the ratio to the reference stays steady.  The
same numbers in seconds (``wall_s``, ``steps_per_s``) are printed and
saved with the result.  ``setup_s`` is in seconds.

``--trace 1`` alternates untraced and traced passes, writes the span file
``.bench_out/spans-<workload>.csv``, prints the full per-layer table, and
reports the per-layer metrics (low medians over the traced passes) and
``trace_overhead_pct`` (traced against untraced ``wall_ref``).

Correctness: all passes of a run must agree on every output digest
(final theta per arm and seed, oracle outputs), traced or not; at the
default seed the digests must also equal those recorded in
``bench/digests.json``.  ``--record-digests`` rewrites that file from a
default-seed run, and prints what changed.  The last line of output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a result is not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("geometry-2d", "digits-table", "oracle-certify")
DEFAULT_SEED = 0
MIN_PASSES = 5
MIN_TRACED_PASSES = 4          # two untraced, two traced
MAX_PASSES = 100
PASS_TIMEOUT_S = 170
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_ref": "ref", "setup_s": "s", "steps_per_ref": "1/ref",
             "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    """A worker process ended without a result."""


def run_pass(workload, seed, traced):
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run passes until the time is used up; returns (passes, errors)."""
    passes, errors, durations = [], [], []
    start = time.monotonic()
    minimum = MIN_TRACED_PASSES if trace else MIN_PASSES
    while len(passes) + len(errors) < MAX_PASSES:
        traced = bool(trace) and len(passes) % 2 == 1
        t = time.monotonic()
        try:
            passes.append(run_pass(workload, seed, traced))
        except PassError as exc:
            errors.append(str(exc))
            if not passes:
                break          # the first pass failing means no program to run
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if (len(passes) >= minimum
                and elapsed + statistics.median(durations) > seconds):
            break
    return passes, errors


def compare_digests(passes, recorded):
    """Keys whose digest differs between passes, or from the recorded set."""
    reference = passes[0]["digests"] if passes else {}
    bad = set()
    for p in passes[1:]:
        keys = set(p["digests"]) | set(reference)
        bad |= {k for k in keys if p["digests"].get(k) != reference.get(k)}
    if recorded is not None:
        keys = set(recorded) | set(reference)
        bad |= {k for k in keys if recorded.get(k) != reference.get(k)}
    return sorted(bad)


def end_to_end(passes):
    """Medians over the untraced passes, in reference units and seconds."""
    plain = [p for p in passes if not p["traced"]]
    med = statistics.median
    return {
        "wall_ref": med(p["wall_s"] / p["ref_s"] for p in plain),
        "setup_s": med(p["setup_s"] for p in plain),
        "steps_per_ref": med(p["steps"] * p["ref_s"] / p["wall_s"]
                             for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }, {
        "wall_s": med(p["wall_s"] for p in plain),
        "steps_per_s": med(p["steps"] / p["wall_s"] for p in plain),
        "ref_s": med(p["ref_s"] for p in plain),
    }


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [tracing.layer_metrics(p["layers"], p["gamma_cache"])
                for p in traced]
    out = {name: (statistics.median_low(m[name][0] for m in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    untraced = statistics.median(p["wall_s"] / p["ref_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] / p["ref_s"] for p in traced)
    out["trace_overhead_pct"] = (100.0 * (traced_wall - untraced) / untraced,
                                 "%")
    return out


def provenance():
    import numpy
    import scipy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def load_recorded():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["workloads"]


def run_workload(workload, seed, seconds, trace, recorded):
    """Measure one workload and print its report.

    ``recorded`` holds the digests the outputs must equal, or None when
    only the passes are compared with each other.
    """
    passes, errors = measure(workload, seed, seconds, trace)
    if trace and not all(any(p["traced"] == t for p in passes)
                         for t in (False, True)):
        passes = []            # overhead needs a traced and an untraced pass
    mismatched = compare_digests(passes, recorded)
    checks_ok = all(c["ok"] for p in passes for c in p["checks"].values())
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    correct = (bool(passes) and not errors and failed == 0 and checks_ok
               and not mismatched)
    result = {"workload": workload, "seed": seed, "trace": trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "digest_mismatches": len(mismatched),
              "mismatched_keys": mismatched, "pass_errors": errors,
              "failures": sorted({f for p in passes for f in p["failures"]}),
              "passes": len(passes), "metrics": {}}
    if passes:
        if trace:
            metrics = per_layer(passes)
        else:
            e2e, result["seconds"] = end_to_end(passes)
            metrics = {name: (value, E2E_UNITS[name])
                       for name, value in e2e.items()}
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in metrics.items()}
        result["digests"] = passes[0]["digests"]
        result["headline"] = passes[0]["headline"]
        result["raw_passes"] = [
            {k: p[k] for k in ("traced", "setup_s", "wall_s", "ref_s",
                               "steps", "peak_rss_mb", "attempted", "failed")}
            for p in passes]
        last_traced = [p for p in passes if p["traced"]]
        result["layers"] = last_traced[-1]["layers"] if last_traced else None
    print_report(result, passes)
    return result


def print_report(result, passes):
    w = result["workload"]
    plain = [p for p in passes if not p["traced"]]
    print(f"== {w}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {len(passes)} ({len(plain)} untraced)")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']!r} {m['unit']}")
    units = {"wall_s": "s", "steps_per_s": "1/s", "ref_s": "s"}
    for name, value in result.get("seconds", {}).items():
        print(f"  {name:<44} {value!r} {units[name]}")
    if plain:
        walls = sorted(p["wall_s"] for p in plain)
        print(f"  wall_s over {len(walls)} untraced passes: min {walls[0]!r}, "
              f"median {statistics.median(walls)!r}, max {walls[-1]!r}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0
    print(f"  {'failed_share':<44} {share!r} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"  {'digest_mismatches':<44} {result['digest_mismatches']} count")
    for label, rel in sorted(result.get("headline", {}).items()):
        print(f"  {'rel_improvement_pct ' + label:<44} {rel!r} %")
    for key in result["mismatched_keys"]:
        print(f"  MISMATCH {key}")
    for text in result["failures"] + result["pass_errors"]:
        print(f"  FAILED {text}")
    if result.get("layers"):
        print_layer_table(result["layers"])
    if result["seed"] != DEFAULT_SEED:
        for key, value in sorted(result.get("digests", {}).items()):
            print(f"  digest {key} {value}")


def print_layer_table(layers):
    print(f"  {'layer':<40}{'caller':>7}{'calls':>9}{'rows':>10}"
          f"{'s':>10}{'self_s':>10}{'p50_us':>10}{'p99_us':>11}")
    for name in sorted(layers):
        entry = layers[name]
        rows = [("all", entry)] + sorted(entry["by_caller"].items())
        for caller, e in rows if len(rows) > 2 else rows[:1]:
            print(f"  {name:<40}{caller:>7}{e['calls']:>9}{e['rows']:>10}"
                  f"{e['s']:>10.4f}{e['self_s']:>10.4f}{e['p50_us']:>10.1f}"
                  f"{e['p99_us']:>11.1f}")
    counts = layers.get("ordered_loss.rank_selection_counts")
    if counts and counts["s"] > 0:
        print(f"  ordered_loss.rank_selection_counts.subsets_per_s "
              f"{counts['rows'] / counts['s']!r} 1/s")


def record_digests(results, prov):
    try:
        with open(DIGESTS_PATH) as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {"workloads": {}}
    new = {"seed": DEFAULT_SEED, "provenance": prov,
           "workloads": dict(old["workloads"])}
    for res in results:
        before = old["workloads"].get(res["workload"], {})
        after = res["digests"]
        changed = sorted(k for k in set(before) | set(after)
                         if before.get(k) != after.get(k))
        print(f"recording {len(after)} digests for {res['workload']}; "
              f"{len(changed)} differ from the previous record")
        for key in changed:
            print(f"  {key}: {before.get(key)} -> {after.get(key)}")
        new["workloads"][res["workload"]] = after
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="osgd benchmark (see the module docstring)")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json from this run "
                             "(default seed, untraced)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "osgd", "__init__.py")):
        print(f"no osgd sources under {os.path.join(ROOT, 'src')}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        print("--record-digests needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    check = args.seed == DEFAULT_SEED and not args.record_digests
    recorded = load_recorded() if check else {}
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace,
                           recorded.get(name, {}) if check else None)
        if not res["passes"]:
            print(f"{name}: no pass completed", file=sys.stderr)
            return 2
        res["provenance"] = prov
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}"
                            f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        results.append(res)
    if args.record_digests:
        record_digests(results, prov)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results
                   for name, m in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] or args.record_digests else 1


if __name__ == "__main__":
    sys.exit(main())
