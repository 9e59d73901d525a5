"""Paired perfbench runs of a parent checkout and a changed one, kept as one BENCH_*.json record.

    python3 tests/benchpairs.py --parent DIR --change DIR --out BENCH_37.json

The command, the run length, the workloads and the end-to-end metrics come
from ``BENCHMARK.json`` in the changed checkout; each run is one perfbench
process at seed ``SEED``, ``PAIRS`` pairs a workload. Pair i runs the parent
first when i is even and the change first when it is odd. The record keeps, per workload, every run's
``run {...}`` line and result line (perfbench's last), parsed, and for
each side and end-to-end metric the median and the quartiles of its runs.
Exits 1 when a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SEED = 1
PAIRS = 10


def perfbench_run(checkout: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in ``checkout``: its exit code, ``run {...}`` line and result line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    described = [json.loads(line[len("run "):]) for line in lines if line.startswith("run {")]
    if proc.returncode not in (0, 1) or len(described) != 1:
        raise RuntimeError(f"perfbench {workload} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return {"exit": proc.returncode, "run": described[0], "result": json.loads(lines[-1])}


def spread(runs: list[dict], metrics: list[str]) -> dict:
    """Per metric, the median and the quartiles (inclusive method) of the runs' values."""
    out = {}
    for name in metrics:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def record(parent_sha: str, benchmark: dict, runs: dict[str, list[dict]]) -> dict:
    """The BENCH record of ``runs``: per workload, a list of {pair, side, first, exit, run, result}."""
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    workloads = {}
    for workload, entries in runs.items():
        workloads[workload] = {
            "runs": entries,
            **{side: spread([e for e in entries if e["side"] == side], metrics) for side in SIDES},
        }
    return {
        "parent_sha": parent_sha,
        "command": benchmark["command"],
        "seed": SEED,
        "seconds": benchmark["run_seconds"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_sha = subprocess.run(["git", "-C", str(args.parent), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        entries = runs[workload] = []
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                done = perfbench_run(checkouts[side], benchmark["command"], workload, SEED,
                                     benchmark["run_seconds"])
                entries.append({"pair": pair, "side": side, "first": side == order[0], **done})
                print(workload, pair, side, done["result"]["correct"],
                      {k: v["value"] for k, v in done["result"]["metrics"].items()}, flush=True)
    args.out.write_text(json.dumps(record(parent_sha, benchmark, runs), indent=1) + "\n", encoding="utf-8")
    return 0 if all(e["result"]["correct"] for entries in runs.values() for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
