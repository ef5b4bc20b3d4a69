#!/usr/bin/env python3
"""Repository benchmark: build the drivers from source, run one workload,
check its outputs, print every metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-contended --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload real-2pl --seed 3 --seconds 10 --trace 1

--trace 0 prints the end-to-end metrics of BENCHMARK.json (timed driver, no
instrumentation). --trace 1 prints the per-layer metrics: half of the
window runs untraced (commits/s and the checker off/on pairing), half runs
the traced driver; their commits/s are printed side by side.

--break {skip-validation,drop-replies} runs a deliberately broken program
(negative control): the correctness gate must fail the command.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 0 only for a correct run. See
perfbench/README.md for the metrics, the workloads and the host fingerprint.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-contended", "sim-cached-checked", "real-2pl")
# Wall budget for the drivers once built (the command must end within 180 s).
RUN_BUDGET_S = 160.0
BUILD_TYPE = "Release"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def host_fingerprint():
    """Cores, clock and build type: compare numbers only within one."""
    mhz = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    mhz = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"cores={os.cpu_count()} mhz={mhz} build={BUILD_TYPE}"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds both drivers; returns False on failure."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench_timed", "perfbench_traced"])
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
            except OSError as e:
                log(f"cannot run {cmd[0]}: {e}")
                return False
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run_driver(binary, args, timeout):
    """Runs one driver; returns its parsed JSON result (None if it died)."""
    cmd = [str(binary)] + args
    log("running " + " ".join([binary.name] + args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=None, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{binary.name} exceeded {timeout:.0f} s and was killed")
        return None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        log(f"{binary.name} exited with status {proc.returncode} "
            "and printed no result")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{binary.name} printed an unreadable result")
        return None
    if proc.returncode != 0 and result.get("correct"):
        result["correct"] = False
    return result


def failed_result():
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "digest": "", "failures": ["driver died"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break", dest="breakage",
                        choices=("skip-validation", "drop-replies"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json at the checkout root: {e}")
        return 2
    out = build_dir()
    if not build(out):
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.breakage:
        common += ["--break", args.breakage]
    timed = out / "perfbench_timed"
    traced = out / "perfbench_traced"
    if args.trace == 0:
        result = run_driver(timed, common + ["--seconds", str(args.seconds)],
                            RUN_BUDGET_S) or failed_result()
        expected = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = result["metrics"]
        results = [result]
    else:
        half = str(max(1.0, args.seconds / 2))
        untraced = run_driver(timed, common + ["--seconds", half,
                                               "--companion"],
                              RUN_BUDGET_S / 2) or failed_result()
        left = RUN_BUDGET_S - (time.monotonic() - start)
        result = run_driver(traced, common + ["--seconds", half],
                            max(1.0, left)) or failed_result()
        results = [untraced, result]
        expected = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = dict(result["metrics"])
        metrics.update({k: v for k, v in untraced["metrics"].items()
                        if k != "commits_per_s"})
        slow = metrics.pop("commits_per_s", {"value": 0.0})["value"]
        fast = untraced["metrics"].get("commits_per_s", {"value": 0.0})
        fast = fast["value"]
        metrics["trace.commits_per_s_traced"] = {"value": slow, "unit": "1/s"}
        metrics["trace.commits_per_s_untraced"] = {"value": fast,
                                                   "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": (fast - slow) / fast * 100.0 if fast else 0.0,
            "unit": "%"}
        if (args.workload.startswith("sim-") and untraced["correct"]
                and result["correct"]
                and untraced["digest"] != result["digest"]):
            result["correct"] = False
            result["failures"].append(
                "traced and untraced runs gave different model outputs")

    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for why in r.get("failures", []):
            log(f"correctness failure: {why}")
    final = {}
    if correct:
        unknown = sorted(set(metrics) - set(expected))
        if unknown:
            log(f"metrics missing from BENCHMARK.json: {unknown}")
            return 2
        for name in expected:
            if name not in metrics:
                # The layer does not run on this workload (see README.md).
                metrics[name] = {"value": 0.0, "unit": units[name]}
            if metrics[name]["unit"] != units[name]:
                log(f"{name}: unit {metrics[name]['unit']} != {units[name]}")
                return 2
            final[name] = {"value": metrics[name]["value"],
                           "unit": units[name]}
    else:
        failed = attempted
    print(f"host: {host_fingerprint()} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in final.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if attempted:
        print(f"failed_ratio = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} attempts)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
