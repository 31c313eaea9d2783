"""Digests of every seeded CLI output of one benchmark workload.

    python3 tools/seeded_outputs.py --workload narrow --seed 7 --work /tmp/argn-out

Writes the workload's inputs into ``--work`` with ``bench/inputs.setup``,
runs every verb once in this process as ``bench/run.py --trace 1`` does
(with its output gate), and prints one ``sha256  name`` line per output.
A model file gets two lines, ``name:header`` for its JSON header and
``name:weights`` for its weight section, so a header-only change shows on
its own. Two checkouts that print the same lines wrote the same bytes.

On stderr it prints one ``parse_column  verb  calls  cells`` line per verb:
the calls to ``argn.tables.parse_column`` that verb made, and the cells
they parsed; then one ``peak_mib  verb  N`` line per verb: the tracemalloc
peak of that verb's run, in MiB; then one ``seconds  verb  S`` line per
verb: the wall time of the verb in this process, without interpreter
start-up or imports, from a second pass of every verb (outputs in
``--work``/timed) that runs without tracemalloc or counters.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import struct
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import argn.cli  # noqa: E402
import argn.tables  # noqa: E402
import inputs  # noqa: E402  (bench/inputs.py)
import run  # noqa: E402  (bench/run.py)


def digests(name: str, path: Path) -> list[tuple[str, str]]:
    """(sha256, label) per output; model files split into header and weights."""
    blob = path.read_bytes()
    if not name.endswith(".argn"):
        return [(hashlib.sha256(blob).hexdigest(), name)]
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return [(hashlib.sha256(blob[:16 + header_len]).hexdigest(), f"{name}:header"),
            (hashlib.sha256(blob[16 + header_len:]).hexdigest(), f"{name}:weights")]


@contextlib.contextmanager
def per_verb_counts():
    """Yields a list that gains one [calls, cells, peak] per CLI run, in run
    order: that run's ``parse_column`` calls (every caller resolves the name
    through ``argn.tables`` at call time) and its tracemalloc peak in bytes."""
    per_run: list[list[int]] = []
    parse, cli = argn.tables.parse_column, argn.cli.cli

    def counted_parse(cells, kind):
        per_run[-1][0] += 1
        per_run[-1][1] += len(cells)
        return parse(cells, kind)

    def counted_cli(argv):
        per_run.append([0, 0, 0])
        tracemalloc.start()
        try:
            return cli(argv)
        finally:
            per_run[-1][2] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    argn.tables.parse_column, argn.cli.cli = counted_parse, counted_cli
    try:
        yield per_run
    finally:
        argn.tables.parse_column, argn.cli.cli = parse, cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for the inputs and outputs")
    args = parser.parse_args(argv)

    w = inputs.WORKLOADS[args.workload]
    work = Path(args.work)
    inputs.setup(w, args.seed, str(work))
    with per_verb_counts() as counts:
        failed = [r for r in run.run_pass(w, args.seed, work, work) if not r.ok]
    timed = run.run_pass(w, args.seed, work, work / "timed")
    failed += [r for r in timed if not r.ok]
    for verb, (calls, cells, _) in zip(run.VERBS, counts):
        print(f"parse_column  {verb}  {calls}  {cells}", file=sys.stderr)
    for verb, (_, _, peak) in zip(run.VERBS, counts):
        print(f"peak_mib  {verb}  {peak / 2**20:.2f}", file=sys.stderr)
    for r in timed:
        print(f"seconds  {r.verb}  {r.wall:.3f}", file=sys.stderr)
    for r in failed:
        print(f"FAILED {r.verb}: {r.error} (log in {work / 'verbs.log'})", file=sys.stderr)
    if failed:
        return 2
    for verb in run.VERBS:
        for digest, label in digests(run.OUTPUTS[verb], work / run.OUTPUTS[verb]):
            print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
