"""One pass of one benchmark workload, in a fresh interpreter.

Started by ``bench/run.py`` once per measured pass, so that module-level
caches (``harness._gamma_approx``) start cold as they do for a user of
``osgd train``.  Imports ``osgd`` from ``src/`` of the checkout this file
sits in, builds the workload's inputs from the seed, runs one pass and
prints one JSON object as its last line of output.

    python3 bench/worker.py --workload geometry-2d --seed 0 --t0 <monotonic>
        [--trace 1]

``--t0`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports and input construction.
With ``--trace 1`` the library is traced and the spans are written to
``.bench_out/spans-<workload>.csv``.

``ref_s`` is the mean time of a fixed reference round, run several times
just before and just after the pass: a small-matrix numpy loop shaped
like one training step, then exact big-integer binomial sums shaped like
the gamma numerators; it does not use ``osgd``.  The host slows down for
minutes at a time when other tenants load it, and the reference slows
with it, so pass time in reference units stays steady where seconds do
not.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from math import comb

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REF_ROUNDS = 4                 # before the pass, and again after it


def reference_rounds(rounds=REF_ROUNDS):
    """Seconds of each of ``rounds`` runs of the fixed reference round."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 16))
    W0 = 0.1 * rng.standard_normal((16, 16))
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        W = W0.copy()
        for _ in range(1000):
            H = np.tanh(X @ W)
            W -= 1e-4 * (H.T @ X)
            kept = np.sort(np.argpartition(-H[:, 0], 8)[:8])
            sum(int(i) * 2 for i in kept)
        total = 0
        for j in range(1, 400):
            for k in range(8):
                total += comb(j - 1, k) * comb(2000 - j, 63 - k)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "osgd", "__init__.py")):
        print(f"no osgd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import osgd
    if os.path.dirname(os.path.dirname(os.path.abspath(osgd.__file__))) != SRC:
        print(f"imported osgd from {osgd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from osgd import harness

    import tracing
    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    outdir = os.path.join(OUT_DIR, "csv", args.workload)
    os.makedirs(outdir, exist_ok=True)

    tracer = None
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
        tracer = tracing.Tracer(spans).install()
    try:
        state = setup(args.seed, outdir)
        setup_s = time.monotonic() - args.t0
        ref_times = reference_rounds()
        tally = workloads.Tally()
        t_start = time.perf_counter()
        run_pass(state, tally)
        wall_s = time.perf_counter() - t_start
        ref_times += reference_rounds()
    finally:
        if tracer is not None:
            tracer.uninstall()

    cache = harness._gamma_approx.cache_info()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": sum(ref_times) / len(ref_times),
        "steps": tally.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "checks": tally.checks,
        "digests": tally.digests,
        "headline": tally.headline,
        "gamma_cache": {"hits": cache.hits, "misses": cache.misses},
        "layers": tracer.layer_table() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
