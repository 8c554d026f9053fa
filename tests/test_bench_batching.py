"""`scripts/bench_batching.py`, run end to end for two short rounds."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_batching.py"
INPUTS = ["pair-n100", "pair-n200", "pair-n500", "pair-n1000", "bootstrap-n1000",
          "grid-0..20", "grid-0..200", "normal-1dp", "normal-2dp"]


def test_two_rounds_report_every_input_with_its_quartiles(tmp_path):
    out = tmp_path / "batching.json"
    # a process of its own: the script imports divot afresh from the checkout's src
    proc = subprocess.run([sys.executable, str(SCRIPT), "--rounds", "2", "--calls", "1",
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["rounds"], report["calls"], report["unit"]) == (2, 1, "us")
    assert sorted(report["inputs"]) == sorted(INPUTS)
    for name, entry in report["inputs"].items():
        assert entry["n"] >= 100 and 2 <= entry["k"] <= entry["n"], name
        after = entry["after"]
        assert set(after) == {"median", "q1", "q3"}, name
        assert 0 < after["q1"] <= after["median"] <= after["q3"], name
        assert "before" not in entry and "after_over_before" not in entry
