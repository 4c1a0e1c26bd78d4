#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the QDP-JIT reproduction.

    python3 perfbench/run.py --workload wilson_cg --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a full checkout.  It builds
perfbench/main.exe from source with dune (shared dune cache off), runs
it from the checkout root with the REPRO_* overrides removed from its
environment, and prints its output.  main.exe ends with a JSON line of
metric names and values.  BENCHMARK.json is the only place metric units
are written: this script checks that the names are exactly the ones it
lists for the chosen mode, attaches their units and prints the result
line.  Otherwise it exits with code 1 and prints no result.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    # REPRO_JIT_CACHE, REPRO_VM_DOMAINS and REPRO_VM_SUPERINSN would
    # silently change what is measured, and so would OCaml GC settings.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env["DUNE_CACHE"] = "disabled"
    return env


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def with_units(line, spec, trace):
    """Turn main.exe's result line into the benchmark's result.

    Returns (result, None), or (None, error message) when the line is
    malformed or its metric names differ from BENCHMARK.json's."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, f"result keys must be {sorted(RESULT_KEYS)}"
    if not isinstance(result["correct"], bool):
        return None, "correct is not a boolean"
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        return None, "attempted and failed must be whole numbers"
    if attempted < 1 or not 0 <= failed <= attempted:
        return None, "attempted must be >= 1 and failed within [0, attempted]"
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    values = result["metrics"]
    if not isinstance(values, dict):
        return None, "metrics must be an object"
    missing, unknown = set(units) - set(values), set(values) - set(units)
    if missing or unknown:
        return None, ("metric names differ from BENCHMARK.json: "
                      f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, f"metric {name} is not a finite number"
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in expected}
    return result, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full checkout of the repository")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    env = child_env()
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".perfbench")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    result, error = with_units(lines[-1], spec, args.trace == 1)
    if error:
        fail(error)
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"# {name:<28} {m['value']:16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
