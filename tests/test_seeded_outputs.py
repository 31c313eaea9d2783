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
