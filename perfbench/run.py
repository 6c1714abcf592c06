#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Builds the driver (perfbench/CMakeLists.txt) from the repository's
sources, pins the environment, runs one workload and prints every
metric by name and unit. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload gpu-dense --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --smoke       # every workload, tiny scale
    python3 perfbench/run.py --contrasts   # check the workload contrasts

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Workloads, their cells, the default and held-out
seeds, the prediction table and which metrics are exact counts live
in perfbench/workloads.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Every SCUSIM_* variable is dropped from the driver's environment;
# these are then set to the defaults. The driver refuses to run if it
# sees anything else for the knobs that change what runs.
PINNED_ENV = {"SCUSIM_SCHEDULER": "event", "SCUSIM_SM_PATH": "soa",
              "SCUSIM_JOBS": "1"}

RUN_TIMEOUT_S = 170


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "harness",
                                       "runner.hh")):
        sys.exit("perfbench: simulator sources (src/) not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def driver_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SCUSIM_")}
    env.update(PINNED_ENV)
    return env


def run_driver(cells, seed, scale, seconds, trace):
    """Run the driver; return (exit code, parsed RESULT or None)."""
    cmd = [BINARY, "--seed", str(seed), "--scale", str(scale),
           "--seconds", str(seconds), "--trace", str(trace)]
    for c in cells:
        cmd += ["--cell", c]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=driver_env(), timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def expected_metrics(trace):
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    return [m["name"] for m in
            bench["per_layer" if trace else "end_to_end"]]


def check_metrics(result, trace):
    """Names of expected metrics that are missing or not finite."""
    bad = []
    for name in expected_metrics(trace):
        m = result["metrics"].get(name)
        if m is None or m["value"] is None or \
                not math.isfinite(m["value"]):
            bad.append(name)
    return bad


def bench(args):
    spec = load_json("workloads.json")
    if args.workload not in spec["workloads"]:
        sys.exit("perfbench: unknown workload '%s' (have %s)" %
                 (args.workload, ", ".join(spec["workloads"])))
    seed = spec["default_seed"] if args.seed is None else args.seed
    cells = spec["workloads"][args.workload]["cells"]
    build()
    code, result = run_driver(cells, seed, spec["scale"], args.seconds,
                              args.trace)
    if result is None:
        sys.exit("perfbench: driver exited %d without a result" % code)
    bad = check_metrics(result, args.trace)
    if bad:
        sys.exit("perfbench: metrics missing: " + ", ".join(bad))
    print("fail_frac %s; digests %s" %
          (result["fail_frac"], json.dumps(result["digests"])))
    names = set(expected_metrics(args.trace))
    out = {"correct": result["correct"] and code == 0,
           "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: v for k, v in result["metrics"].items()
                       if k in names}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def smoke(_args):
    """Every workload, metric and probe at a tiny scale, in seconds."""
    spec = load_json("workloads.json")
    build()
    failures = []
    for name, w in spec["workloads"].items():
        for trace in (0, 1):
            code, result = run_driver(w["cells"], spec["default_seed"],
                                      spec["smoke_scale"], 1, trace)
            if result is None or code != 0 or not result["correct"]:
                failures.append("%s trace=%d: exit %d" %
                                (name, trace, code))
                continue
            bad = check_metrics(result, trace)
            if bad:
                failures.append("%s trace=%d: missing %s" %
                                (name, trace, ", ".join(bad)))
    for f in failures:
        print("SMOKE FAIL " + f)
    print("smoke: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def contrasts(args):
    """The counter contrasts the workloads were chosen for."""
    spec = load_json("workloads.json")
    seed = spec["default_seed"] if args.seed is None else args.seed
    build()
    m = {}
    for name, w in spec["workloads"].items():
        code, result = run_driver(w["cells"], seed, spec["scale"], 1, 1)
        if result is None or code != 0:
            sys.exit("perfbench: %s failed (exit %d)" % (name, code))
        m[name] = {k: v["value"] for k, v in result["metrics"].items()}
    checks = [
        ("scu.ops = 0 on gpu-dense", m["gpu-dense"]["scu.ops"] == 0),
        ("gpu.thread_instrs: scu-dense < gpu-dense / 2",
         m["scu-dense"]["gpu.thread_instrs"] <
         m["gpu-dense"]["gpu.thread_instrs"] / 2),
        ("alg.steps: sparse-stall >= 10x each dense workload",
         m["sparse-stall"]["alg.steps"] >=
         10 * max(m["gpu-dense"]["alg.steps"],
                  m["scu-dense"]["alg.steps"])),
        ("mem.l2_hit_rate: sparse-stall > scu-dense",
         m["sparse-stall"]["mem.l2_hit_rate"] >
         m["scu-dense"]["mem.l2_hit_rate"]),
    ]
    for label, ok in checks:
        print("%-52s %s" % (label, "ok" if ok else "FAIL"))
    return 0 if all(ok for _, ok in checks) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--contrasts", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke(args)
    if args.contrasts:
        return contrasts(args)
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
