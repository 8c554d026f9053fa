"""`scripts/output_digest.py --against`, on hand-made listings."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def fake_listings(monkeypatch, theirs, ours):
    """`listing` answering `theirs` for any src but this checkout's, `ours` for it."""
    here = output_digest.ROOT / "src"
    monkeypatch.setattr(output_digest, "listing",
                        lambda src: dict(ours if src == here else theirs))


def test_identical_listings_exit_0(monkeypatch, capsys, tmp_path):
    listing = {"infer/a": "11", "bench/b": "22"}
    fake_listings(monkeypatch, listing, listing)
    assert output_digest.main(["--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "0 of 2 lines differ\n"


def test_each_differing_or_missing_line_is_printed_and_exits_1(monkeypatch, capsys, tmp_path):
    fake_listings(monkeypatch, {"infer/a": "11", "bench/b": "22", "gone": "33"},
                  {"infer/a": "11", "bench/b": "2X", "new": "44"})
    assert output_digest.main(["--against", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"bench/b: 22 in {tmp_path}, 2X here",
        f"gone: 33 in {tmp_path}, (missing) here",
        f"new: (missing) in {tmp_path}, 44 here",
        "3 of 4 lines differ",
    ]


def test_a_checkout_is_read_through_its_src_directory(monkeypatch, tmp_path):
    (tmp_path / "src" / "divot").mkdir(parents=True)
    seen = []
    monkeypatch.setattr(output_digest, "listing", lambda src: seen.append(src) or {})
    output_digest.against(tmp_path)
    output_digest.against(tmp_path / "src")
    assert seen[0] == seen[2] == tmp_path / "src"
