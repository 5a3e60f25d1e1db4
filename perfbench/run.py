#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The OCaml program is built with dune
into the checkout's _build directory (the shared dune cache is disabled,
so nothing is read or written outside the checkout), then run with the
same arguments under a hard time limit. Its standard error passes
through; the last line of standard output is its JSON result, whose
metric names and units are checked against BENCHMARK.json before it is
printed. Exits non-zero, printing no result, when the repository sources
are missing, the build fails, the program fails, or the result does not
match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", os.path.join("lib", "core", "index.mli"),
           os.path.join("perfbench", "dune"), "BENCHMARK.json"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s exceeded %d s and was killed" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die("run from the root of a checkout; missing " + ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + a.workload)

    rc, _ = run_group(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                      BUILD_TIMEOUT_S, sys.stderr)
    if rc != 0:
        die("build failed", rc)

    rc, out = run_group([EXE, "--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace)],
                        RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    if rc != 0 or not lines:
        die("benchmark exited with %d" % rc, rc or 1)
    result = json.loads(lines[-1])
    want = spec["per_layer" if a.trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got) or any(
            got[m["name"]]["unit"] != m["unit"] for m in want):
        die("metrics do not match BENCHMARK.json")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
