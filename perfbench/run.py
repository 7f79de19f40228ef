#!/usr/bin/env python3
"""Builds and runs the real-engine refresh benchmark.

    python3 perfbench/run.py --workload fig9_io --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

service_shared runs untraced only; `--workload all --trace 1` runs the
other two.

Run from anywhere inside a checkout of the repository. The benchmark is
compiled from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-check the build. Scratch
data goes to .bench_work (removed after each run) and detailed records
plus Chrome traces to .bench_results. The last line of standard output is
the JSON result; build logs go to standard error.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fig9_io", "compute_lanes", "service_shared"]
# service_shared's layer metrics come from the traced compute_lanes run.
TRACED_WORKLOADS = ["fig9_io", "compute_lanes"]


def run_timeout(seconds):
    """Seconds one workload may take: three set-ups, the segment and, when
    traced, the Fig. 9 table, the disk probe and a service segment of up to
    10 s. A traced compute_lanes run of 30 s took about 55 s on 4 vCPUs;
    at --seconds 30 this allows 150 s."""
    return 60 + 3 * seconds


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_logged(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = out / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    with open(out / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for attempt in range(2):
            # Configure on every run: cmake refuses a cache made from
            # another checkout's sources, so a build directory shared
            # between checkouts is wiped below instead of silently
            # building the other checkout.
            ok = run_logged(configure) == 0
            ok = ok and run_logged(["cmake", "--build", str(out), "--target",
                                    "perfbench", "-j", jobs]) == 0
            if ok and binary.exists():
                return binary
            if attempt == 0 and (out / "CMakeCache.txt").exists():
                log("build failed; reconfiguring from scratch")
                for child in out.iterdir():
                    if child.name == ".perfbench.lock":
                        continue
                    if child.is_dir():
                        shutil.rmtree(child)
                    else:
                        child.unlink()
    return None


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    library and benchmark sources (checkouts need not be repositories)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip()
            if commit:
                ident = f"git:{commit} {ident}"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ident


def run_one(binary, workload, args, ident):
    """Runs one workload; returns (parsed result, exit code)."""
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--results-dir",
           str(ROOT / ".bench_results"), "--source-id", ident]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout:g} s")
        return None, 124
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return None, proc.returncode
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: last output line is not a JSON result")
        return None, 1
    return (result, lines[:-1]), 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = TRACED_WORKLOADS if args.trace else WORKLOADS
    if args.workload not in workloads + ["all"]:
        parser.error(f"{args.workload} has no traced mode; its layer metrics "
                     "come from the traced compute_lanes run")

    if not (ROOT / "src" / "runtime" / "controller.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return 3
    binary = build()
    if binary is None:
        log("build failed")
        return 4
    ident = source_id()

    if args.workload != "all":
        outcome, code = run_one(binary, args.workload, args, ident)
        if outcome is None:
            return code or 1
        result, lines = outcome
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for workload in workloads:
        outcome, code = run_one(binary, workload, args, ident)
        if outcome is None:
            return code or 1
        result, lines = outcome
        print("\n".join(lines), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            summary.append((f"{workload}.{name}", metric["value"],
                            metric["unit"]))
        summary.append((f"{workload}.failed_frac",
                        result["failed"] / result["attempted"], "frac"))
    print("\nsummary:")
    for name, value, unit in summary:
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
