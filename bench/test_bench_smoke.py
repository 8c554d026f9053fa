"""Smoke tests of the pipeline benchmark at tiny sizes (`--smoke`)."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=BENCH_DIR.parent, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "accuracy")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_checks_counts_and_restores_divot(workload, capsys):
    import divot.decide
    import divot.multivar

    originals = (divot.decide.make_batches, divot.multivar.variable_term)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--smoke"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], out
    assert set(result["metrics"]) == set(layers.UNITS)
    assert (divot.decide.make_batches, divot.multivar.variable_term) == originals


def test_orient_counts_match_the_chain_families(capsys):
    run.main(["--workload", "orient-chain6", "--seed", "5", "--seconds", "0",
              "--trace", "1", "--smoke"])
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert metrics["multivar.variable_term.calls"]["value"] == 192
    assert metrics["multivar.families.distinct"]["value"] == 20
    assert metrics["multivar.orientations_scored"]["value"] == 32


def test_same_seed_gives_same_digest_and_accuracy():
    runs = [_bench("--workload", "pnl-n500", "--seed", "7", "--seconds", "0", "--smoke")
            for _ in range(2)]
    digests = [next(line for line in r.stdout.splitlines() if "digest" in line) for r in runs]
    assert digests[0] == digests[1]
    accuracy = [_result(r)["metrics"]["accuracy"]["value"] for r in runs]
    assert accuracy[0] == accuracy[1]


def test_fails_without_divot_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = _bench("--workload", "sweep-anm", "--seed", "1", "--seconds", "1", "--smoke",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_excludes_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layers.time, "perf_counter", lambda: float(next(ticks)))
    tracer = layers.Tracer()
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: inner())
    outer()  # outer runs from tick 0 to 3, inner from 1 to 2
    totals, _ = tracer.fold()
    assert totals.calls == {"outer": 1, "inner": 1}
    assert totals.self_s == {"outer": 2.0, "inner": 1.0}


def test_benchmark_json_matches_the_script():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
