#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark from source under $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild only what changed. The last line of
standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.

Besides the benchmark's own output checks, this script
  * checks that the result carries exactly the metrics BENCHMARK.json
    declares for the mode (end_to_end with --trace 0, per_layer with 1);
  * keeps, per workload and seed, the values that must repeat exactly
    (simulated times and counts) and fails a run whose values differ
    from an earlier run of the same binary with the same seed.

Exit status: 0 when every check passed, 1 when one failed or the build
or run broke (then no result line is printed unless the run finished).
"""

import argparse
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
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the whole
    group (build tools fork compilers) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir, env):
    if not (ROOT / "CMakeLists.txt").is_file():
        log("no CMakeLists.txt at the repository root; nothing to build")
        return None
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(cmd)}")
            return None
    return build_dir / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, trace):
    """Names and units must match BENCHMARK.json exactly."""
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    for name in sorted(want.keys() - got.keys()):
        problems.append(f"missing metric {name}")
    for name in sorted(got.keys() - want.keys()):
        problems.append(f"undeclared metric {name}")
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            problems.append(f"{name}: unit {got[name]}, declared {want[name]}")
    return problems


def binary_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_repeat(build_dir, binary, workload, seed, repeat):
    """Compare this run's exact-repeat values with an earlier run of the
    same binary and seed, or record them when there is none. Returns
    None when nothing was compared, else the list of differences."""
    store = build_dir / "repeat" / f"{workload}-seed{seed}.json"
    digest = binary_digest(binary)
    if store.is_file():
        old = json.loads(store.read_text())
        if old.get("binary") == digest:
            return [f"{k}: {old['repeat'].get(k)} before, {v} now"
                    for k, v in sorted(repeat.items())
                    if old["repeat"].get(k) != v]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"binary": digest, "repeat": repeat}))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    # Compiler temporaries, spill runs and the .tns input stay inside the
    # checkout.
    tmp_dir = build_dir / "tmp" / str(os.getpid())
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        binary = build(build_dir, env)
        if binary is None:
            return 1
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = build_dir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              env=env, text=True)
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {e.timeout} s: {' '.join(e.cmd)}")
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = out.splitlines()
    if code not in (0, 1) or len(lines) < 2:
        sys.stdout.write(out)
        log(f"benchmark exited with {code}")
        return 1
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    problems = check_metrics(result, args.trace)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    drift = check_repeat(build_dir, binary, args.workload, args.seed,
                         detail["repeat"])
    if drift is not None:
        result["attempted"] += 1
        for d in drift:
            print(f"CHECK FAILED: exact-repeat value changed for seed {args.seed}: {d}")
        if drift:
            result["correct"] = False
            result["failed"] += 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
