"""roadwatch benchmark: one workload per invocation, printed metrics, checked outputs.

    python3 perfbench/run.py --workload paper-day|replay-day|dense \\
        --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/roadwatch``. The workload runs in a
fresh worker process (worker.py); two more processes only set up, so that
``setup_s`` is the median of three. With ``--trace 0`` the last stdout line
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones (see
README.md). The command exits 0 when every output check passed, 1 when a
check failed, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 20


class BenchError(Exception):
    """The benchmark could not produce a result."""


def src_tree_id(path: Path) -> str:
    """The git tree id of ``path`` (what ``git rev-parse HEAD:src`` prints),
    computed from the files, so it also identifies a checkout without git."""
    entries = []
    for child in os.scandir(path):
        if child.name == "__pycache__" or child.name.endswith(".pyc"):
            continue
        if child.is_dir(follow_symlinks=False):
            mode, sort_key, digest = b"40000", child.name + "/", src_tree_id(Path(child.path))
        else:
            data = Path(child.path).read_bytes()
            mode = b"100755" if os.access(child.path, os.X_OK) else b"100644"
            sort_key = child.name
            digest = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        entries.append((sort_key.encode(), mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(digest)))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_sha() -> str | None:
    """HEAD of the repository rooted at this checkout, None if there is none."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def start_worker(args, work: Path, setup_only: bool, timeout: float) -> dict:
    """Run worker.py to completion; its result gains ``setup_s``."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def prepare_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "replay-day":
        truth = gen.replay_day(seed, str(work / "replay-day.log"))
        (work / "replay-day.truth.json").write_text(json.dumps(truth), encoding="utf-8")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("paper-day", "replay-day", "dense"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run(args) -> dict:
    work = WORK / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prepare_inputs(args.workload, args.seed, work)
        result = start_worker(args, work, setup_only=False, timeout=WORKER_TIMEOUT_S)
        setups = [result["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(start_worker(args, work, setup_only=True, timeout=PROBE_TIMEOUT_S)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roadwatch" / "__init__.py").is_file():
        print(f"error: no roadwatch source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    described = {
        "git_sha": git_sha(),
        "src_tree": src_tree_id(SRC),
        "python": platform.python_version(),
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "attempted_frames": result["attempted"],
        "failed_frames": result["failed"],
        "round_walls_s": [round(w, 6) for w in result["round_walls_s"]],
        "frames_timed": result["frames_timed"],
        "frame_p50_us": round(result["frame_p50_us"], 3),
        "setup_samples_s": [round(s, 6) for s in result["setup_samples_s"]],
    }
    if "spans_file" in result:
        described["spans_file"] = result["spans_file"]
    print("run " + json.dumps(described))
    metrics = {}
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:<28} {value:>16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print("checks: " + ("all passed" if correct else f"{len(result['problems'])} failed"))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
