#!/usr/bin/env python3
"""spinscope's benchmark: build spinbench, run one workload, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run builds spinscope and spinbench from source with CMake into
$CARGO_TARGET_DIR (default .bench_build). Everything the run writes stays in
that directory. Human-readable output comes first; the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
output check prints correct=false and exits 1. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_inproc", "sweep_reduce")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def target_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class Lock:
    """Exclusive advisory lock on a file in the build directory."""

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self):
        self.file = open(self.path, "w")
        fcntl.flock(self.file, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.file, fcntl.LOCK_UN)
        self.file.close()


def build(build_dir: Path, targets) -> None:
    """Configures (once) and builds `targets`; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def filesystem_of(path: Path) -> str:
    """'<fstype> at <mount point>' for the mount holding `path`."""
    real = os.path.realpath(path)
    best = ("unknown", "")
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (fields[2], mount)
    except OSError:
        pass
    return f"{best[0]} at {best[1] or '?'}"


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def check_digest(store_path: Path, binary: str, key: str, workload: str, digest: str):
    """Compares `digest` with the one stored for `key` by an earlier run of the
    same binary; stores it when absent. Returns an error message or None."""
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(binary, {})
    earlier = seen.get(key)
    if earlier is None:
        seen[key] = {"digest": digest, "workload": workload}
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
        return None
    if earlier["digest"] != digest:
        return (f"output digest {digest} differs from {earlier['digest']} "
                f"recorded by {earlier['workload']} at the same seed")
    return None


def run_spinbench(binary: Path, args, work_dir: Path, out_dir: Path):
    """Runs spinbench; returns (stdout lines, exit code)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"spinbench did not finish within {RUN_TIMEOUT_S} s")
    return out.splitlines(), proc.returncode


def selftest(build_dir: Path) -> int:
    build(build_dir, ["spinbench", "perfbench_selftest"])
    status = subprocess.run([str(build_dir / "perfbench_selftest")]).returncode
    env = dict(os.environ, PERFBENCH_SPINBENCH=str(build_dir / "spinbench"))
    status |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                              str(HERE / "tests"), "-v"], env=env).returncode
    return 1 if status else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    top = target_dir()
    build_dir = top / "perfbench-cmake"
    top.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        with Lock(top / "perfbench.lock"):
            return selftest(build_dir)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build_dir / "spinbench"
    work_dir = top / "perfbench-work" / str(os.getpid())
    out_dir = top / "perfbench-out"
    try:
        with Lock(top / "perfbench.lock"):
            build(build_dir, ["spinbench"])
            binary_id = file_digest(binary)
        lines, code = run_spinbench(binary, args, work_dir, out_dir)
        journal_fs = filesystem_of(work_dir) if work_dir.exists() else filesystem_of(top)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if not results:
        log(f"perfbench: spinbench exited {code} without a result")
        return 1
    result = json.loads(results[-1])

    correct = bool(result["correct"]) and code == 0
    if result["digest"]:
        with Lock(top / "perfbench.lock"):
            error = check_digest(top / "perfbench-digests.json", binary_id,
                                 str(args.seed), args.workload, result["digest"])
        if error:
            print(f"CHECK FAILED: {error}")
            correct = False
    failed = result["failed"] if correct else result["attempted"]

    print()
    print(f"machine: nproc {os.cpu_count()}, {len(os.sched_getaffinity(0))} usable; "
          f"build {result['build_type']}; journal filesystem {journal_fs}; "
          "simulated network (netsim, in-process), no real link")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{'correct' if correct else 'CHECK FAILED'}, "
          f"{failed} of {result['attempted']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>18.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
