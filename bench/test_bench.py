"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q
"""
import json
import os
import re
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from osgd import coeffs, config, harness, optimizers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _pass(workload, seed, tmp_path):
    setup, run_pass = workloads.WORKLOADS[workload]
    tally = workloads.Tally()
    run_pass(setup(seed, str(tmp_path)), tally)
    return tally


def _as_pass(tally):
    return {"digests": tally.digests}


def test_perturbed_theta_trips_digest_mismatch(tmp_path, monkeypatch):
    recorded = run.load_recorded()["geometry-2d"]
    original = harness.run_single

    def perturbed(cfg, dataset, seed):
        result = original(cfg, dataset, seed)
        if cfg.name == "rings-osgd" and seed == run.DEFAULT_SEED:
            result.final_theta[0] = np.nextafter(result.final_theta[0], np.inf)
        return result

    monkeypatch.setattr(harness, "run_single", perturbed)
    tally = _pass("geometry-2d", run.DEFAULT_SEED, tmp_path)
    assert tally.failed == 0
    assert run.compare_digests([_as_pass(tally)], recorded) == [
        f"rings/osgd/seed{run.DEFAULT_SEED}"]


def test_raising_layer_is_a_counted_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(coeffs, "gamma_rescaled_curve", broken)
    tally = _pass("oracle-certify", 1, tmp_path)
    assert tally.failed == 1
    assert tally.failures == ["gamma_rescaled_curve: RuntimeError: injected"]
    # the rest of the workload still ran and passed its checks
    assert all(c["ok"] for c in tally.checks.values())
    assert "verification_suite" in tally.digests
    assert "gamma_rescaled_curve" not in tally.digests


def test_failed_seed_is_counted():
    tally = workloads.Tally()
    ok = harness.RunResult(seed=0, records=[], final_theta=np.zeros(3))
    bad = harness.RunResult(seed=1, records=[], failed=True, error="diverged")
    tally.add_runs("arm", [ok, bad])
    assert (tally.failed, list(tally.digests)) == (1, ["arm/seed0"])


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracing.layer_metrics({}, {"hits": 0, "misses": 0}))
    assert e2e == set(run.E2E_UNITS)
    assert layers == emitted | {"trace_overhead_pct"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in e2e | layers | set(run.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_tracer_restores_library_and_keeps_results():
    ds = harness.gen_clusters_2d(3)
    ds = ds.with_splits({"train": np.arange(ds.n), "test": np.arange(ds.n)})
    cfg = config.RunConfig(name="t", data=config.DataConfig(kind="clusters"),
                           epochs=2, opt=config.OptConfig(kind="osgd", q=8))
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in tracing.trace_targets()}
    plain = harness.run_single(cfg, ds, 0)
    tracer = tracing.Tracer().install()
    try:
        assert optimizers.osgd_step is not before[optimizers, "osgd_step"]
        traced = harness.run_single(cfg, ds, 0)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    np.testing.assert_array_equal(plain.final_theta, traced.final_theta)
    table = tracer.layer_table()
    steps = table[tracing.STEP]["calls"]
    assert steps == traced.records[-1].step
    assert table["objectives.backward"]["by_caller"]["step"]["calls"] == steps


def test_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "tracing.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
