import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seeded_outputs_prints_one_digest_per_output(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "seeded_outputs.py"),
         "--workload", "narrow", "--seed", "1", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        "model.argn:header", "model.argn:weights", "model_dp.argn:header", "model_dp.argn:weights",
        "syn.csv", "report.json", "cdf.csv", "audit_report.json",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert len({line.split()[0] for line in lines}) == len(lines)
    counts = [line.split("  ") for line in proc.stderr.splitlines() if line.startswith("parse_column  ")]
    assert [c[1] for c in counts] == ["train", "train_dp", "generate", "evaluate", "dcr", "audit"]
    assert all(c[2].isdigit() and c[3].isdigit() for c in counts)
    calls = {c[1]: int(c[2]) for c in counts}
    assert calls["generate"] == 0 and calls["train"] > 0
    peaks = [line.split("  ") for line in proc.stderr.splitlines() if line.startswith("peak_mib  ")]
    assert [p[1] for p in peaks] == ["train", "train_dp", "generate", "evaluate", "dcr", "audit"]
    assert all(re.fullmatch(r"\d+\.\d\d", p[2]) and float(p[2]) > 0 for p in peaks)
    seconds = [line.split("  ") for line in proc.stderr.splitlines() if line.startswith("seconds  ")]
    assert [s[1] for s in seconds] == ["train", "train_dp", "generate", "evaluate", "dcr", "audit"]
    assert all(re.fullmatch(r"\d+\.\d{3}", s[2]) and float(s[2]) > 0 for s in seconds)
