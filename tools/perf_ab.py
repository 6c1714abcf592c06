#!/usr/bin/env python3
"""A/B host-time comparison of this checkout against a git ref.

Runs perfbench/run.py for one workload in alternating pairs, each
run at run.py's default length: a
`git archive` copy of --ref, built in a directory of its own, against
this checkout (the "change"). Which side runs first alternates from
pair to pair, and an untimed warm-up run of the first side
(WARMUP_SECONDS long) precedes each pair, so neither timed run is the
first on a cold host. Prints:

- each pair's --metric (default wall_ref) and one companion metric
  (cpu_ref for wall_ref, else wall_ref), each side's median and
  quartiles of both, and how many pairs the change won on --metric in
  its BENCHMARK.json `better` direction (ties count for neither side);
- in how many pairs the side that ran second was the worse one on
  --metric, so a run-order effect shows (about half is no effect);
- a `gain verdict: met|not met` line: met when the change won at
  least 9/10 of the pairs and its median --metric gain exceeds the
  parent's IQR;
- every end-to-end metric of BENCHMARK.json, parent median against
  change median, with the bound it may worsen by.

Then it makes --traced `--trace 1` runs per side and compares the
exact counters (perfbench/workloads.json, "metric_kinds.exact").
Exits non-zero if a run fails, or if any cell's simulated cycles or
stats-dump digest, or any exact counter, differs between the sides.
With --pairs 0 it makes no timed runs and prints only that
model-identity result.

    python3 tools/perf_ab.py --ref HEAD --workload scu-dense \
        --seed 1 --pairs 10
    python3 tools/perf_ab.py --ref HEAD --workload gpu-dense \
        --seed 1 --pairs 5 --metric setup_s
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Length of the untimed run before each timed pair, in seconds.
WARMUP_SECONDS = 10


def load_json(*parts):
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


def checkout(ref, workdir):
    """Directory holding a `git archive` copy of @p ref."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse",
                          ref + "^{commit}"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    path = os.path.join(workdir, sha)
    if not os.path.isdir(path):
        tmp = path + ".partial"
        os.makedirs(tmp, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("perf_ab: git archive %s failed" % sha)
        os.rename(tmp, path)
    return sha, path


def run(root, args, trace, seconds=None):
    """One perfbench run; returns (ok, metrics, cells). @p seconds
    None keeps run.py's default run length."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    cells = {}
    for line in lines:
        # "cell BFS/TX1/scu-enhanced/kron: sim_cycles N, digest D"
        if line.startswith("cell "):
            name, rest = line[len("cell "):].split(": ", 1)
            cells[name] = rest
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, {}, cells
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return proc.returncode == 0 and result["correct"], metrics, cells


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_cells(label, parent, change):
    bad = []
    for name in sorted(set(parent) | set(change)):
        if parent.get(name) != change.get(name):
            bad.append("%s cell %s: parent %s, change %s" %
                       (label, name, parent.get(name),
                        change.get(name)))
    return bad


def timed_pairs(args, sides, reference, bench):
    """Alternating timed pairs; prints per-pair --metric, medians,
    quartiles, wins and the end-to-end metrics. Returns failures."""
    failures = []
    samples = {"parent": [], "change": []}
    metric = args.metric
    companion = "cpu_ref" if metric == "wall_ref" else "wall_ref"
    lower = next(m for m in bench["end_to_end"]
                 if m["name"] == metric)["better"] == "lower"
    wins = 0
    second_worse = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else \
            ("change", "parent")
        if not run(sides[order[0]], args, 0, WARMUP_SECONDS)[0]:
            failures.append("pair %d: %s warm-up run failed" %
                            (i + 1, order[0]))
        got = {}
        for side in order:
            ok, metrics, cells = run(sides[side], args, 0)
            if not ok:
                failures.append("pair %d: %s run failed" % (i + 1, side))
            failures += compare_cells("pair %d %s" % (i + 1, side),
                                      reference[side], cells)
            got[side] = metrics
            samples[side].append(metrics)
        a = got["parent"].get(metric)
        b = got["change"].get(metric)
        if a is not None and b is not None and \
                (b < a if lower else b > a):
            wins += 1
        first = got[order[0]].get(metric)
        second = got[order[1]].get(metric)
        if first is not None and second is not None and \
                (second > first if lower else second < first):
            second_worse += 1
        print("pair %2d (%s first): parent %12.4f  change %12.4f  "
              "(%s parent %.4f, change %.4f)" %
              (i + 1, order[0], a or float("nan"), b or float("nan"),
               companion,
               got["parent"].get(companion, float("nan")),
               got["change"].get(companion, float("nan"))))

    stats = {}
    for name in (metric, companion):
        for side in ("parent", "change"):
            vals = [m[name] for m in samples[side] if name in m]
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            if name == metric:
                stats[side] = (q2, q3 - q1)
            print("%-6s %s: median %.4f, quartiles %.4f .. %.4f "
                  "(IQR %.4f, n=%d)" % (side, name, q2, q1, q3, q3 - q1,
                                        len(vals)))
    print("change won %d of %d pairs on %s" % (wins, args.pairs, metric))
    print("run order: the side that ran second was worse on %s in %d "
          "of %d pairs" % (metric, second_worse, args.pairs))
    # A claimed gain needs 9 wins in 10 pairs and a median gain larger
    # than the parent's IQR, in the metric's better direction.
    met = False
    if len(stats) == 2:
        gain = stats["parent"][0] - stats["change"][0]
        if not lower:
            gain = -gain
        met = 10 * wins >= 9 * args.pairs and gain > stats["parent"][1]
    print("gain verdict: %s" % ("met" if met else "not met"))

    print("end-to-end metrics (medians; worse = relative change in "
          "the bad direction):")
    for m in bench["end_to_end"]:
        name = m["name"]
        a = [s[name] for s in samples["parent"] if name in s]
        b = [s[name] for s in samples["change"] if name in s]
        if not a or not b:
            print("  %-22s missing" % name)
            continue
        pa, pb = statistics.median(a), statistics.median(b)
        worse = (pb - pa) / pa if m["better"] == "lower" else \
            (pa - pb) / pa
        print("  %-22s parent %12.4f  change %12.4f  worse %+7.2f%%  "
              "bound %.0f%%  %s" %
              (name, pa, pb, 100 * worse, 100 * m["bound"],
               "ok" if worse <= m["bound"] else "OVER BOUND"))
    return failures


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ref", required=True,
                   help="parent commit (any git revision)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--metric", default="wall_ref",
                   help="end-to-end metric of BENCHMARK.json that the "
                        "pairs, wins and gain verdict are on")
    p.add_argument("--traced", type=int, default=1,
                   help="--trace 1 runs per side (0 skips them)")
    p.add_argument("--workdir",
                   default=os.path.join(tempfile.gettempdir(),
                                        "scusim_perf_ab"),
                   help="where the parent copy is built")
    args = p.parse_args()

    bench = load_json("BENCHMARK.json")
    if args.metric not in [m["name"] for m in bench["end_to_end"]]:
        sys.exit("perf_ab: --metric %s is not an end-to-end metric of "
                 "BENCHMARK.json" % args.metric)
    exact = load_json("perfbench", "workloads.json")["metric_kinds"][
        "exact"]
    sha, parent_root = checkout(args.ref, args.workdir)
    if not os.path.exists(os.path.join(parent_root, "perfbench",
                                       "run.py")):
        sys.exit("perf_ab: %s has no perfbench/run.py to compare "
                 "against" % sha[:12])
    sides = {"parent": parent_root, "change": ROOT}
    print("perf_ab: %s, parent %s, change %s" %
          (args.workload, sha[:12], ROOT))

    failures = []
    reference = {}
    # A short untimed run per side builds it and records its cells.
    for side in ("parent", "change"):
        ok, _, cells = run(sides[side], args, 0, seconds=1)
        if not ok:
            failures.append("%s warm-up run failed" % side)
        reference[side] = cells
    failures += compare_cells("warm-up", reference["parent"],
                              reference["change"])

    if args.pairs:
        failures += timed_pairs(args, sides, reference, bench)

    traced = {"parent": [], "change": []}
    for i in range(args.traced):
        # Traced cell lines carry the untraced and traced digests.
        traced_cells = {}
        for side in ("parent", "change"):
            ok, metrics, cells = run(sides[side], args, 1, seconds=1)
            if not ok:
                failures.append("traced run %d: %s failed" % (i + 1, side))
            traced_cells[side] = cells
            traced[side].append(metrics)
        failures += compare_cells("traced %d" % (i + 1),
                                  traced_cells["parent"],
                                  traced_cells["change"])
    counters = 0
    for pm, cm in zip(traced["parent"], traced["change"]):
        for name in exact:
            if name in pm or name in cm:
                counters += 1
                if pm.get(name) != cm.get(name):
                    failures.append("exact counter %s: parent %s, "
                                    "change %s" % (name, pm.get(name),
                                                   cm.get(name)))
    print("model identity: %d cells, %d traced run(s), %d exact "
          "counters: %s" % (len(reference["change"]), args.traced,
                            counters,
                            "FAIL" if failures else "identical"))
    if traced["parent"] and args.pairs:
        print("layer probes (medians of %d traced run(s) per side):" %
              len(traced["parent"]))
        for m in bench["per_layer"]:
            name = m["name"]
            if "probe" not in name:
                continue
            a = [t[name] for t in traced["parent"] if name in t]
            b = [t[name] for t in traced["change"] if name in t]
            if a and b:
                print("  %-28s parent %10.3f  change %10.3f %s" %
                      (name, statistics.median(a),
                       statistics.median(b), m["unit"]))

    for f in failures:
        print("FAIL " + f)
    print("perf_ab: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
