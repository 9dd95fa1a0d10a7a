#!/usr/bin/env python3
"""Steadiness evidence: one traced run of every workload, then two sets of
ten back-to-back runs of every workload on seeds 1..10.

    python3 utilitybench/steadiness.py --out utilitybench/steadiness

For each end-to-end metric it reports, per set, the median and the spread
(the distance between the first and third quartile as a share of the
median, the rule BENCHMARK.json's bounds are checked with), and how far the
second set's median moved from the first's. For each traced run it reports
the per-layer reconciliation and trace.overhead_ratio.

Writes <out>/set1/<workload>.json and <out>/set2/<workload>.json (every
run's result), <out>/traced/<workload>.json (the traced run's result and
its information lines) and <out>/SUMMARY.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1
SETS = ("set1", "set2")
TRACED_SEED = 1
# The per-layer times that make up a traced step, as LayerTotals sums them:
# encode counts by the wall-clock union of its intervals.
ATTRIBUTED = ("core.begin_ms", "sched.encode_wall_ms", "core.absorb_ms",
              "core.finish_ms", "comm.reduce_ms", "net.send_ms",
              "net.recv_wait_ms", "train.fwd_bwd_ms", "train.optimizer_ms")


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit("steadiness.py: %s seed %d trace %d exited %d"
                 % (workload, seed, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    if trace:
        result["info"] = [l for l in lines[:-1] if l.startswith("#")]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def checks_line(name, runs):
    return ("%s: failed checks %d of %d attempted; wall per run %.0f-%.0f s"
            % (name, sum(r["failed"] for r in runs),
               sum(r["attempted"] for r in runs),
               min(r["wall_s"] for r in runs),
               max(r["wall_s"] for r in runs)))


def set_table(bounds, sets):
    lines = ["| metric | set1 median | set1 IQR/median | set2 median "
             "| set2 IQR/median | set2/set1 - 1 | bound |",
             "|---|---|---|---|---|---|---|"]
    for name, bound in bounds.items():
        unit = sets[0][0]["metrics"][name]["unit"]
        cells = []
        medians = []
        for runs in sets:
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            medians.append(med)
            cells += ["%.4g %s" % (med, unit), "%.3f" % rel]
        lines.append("| %s | %s | %+.3f | %.2f |"
                     % (name, " | ".join(cells), medians[1] / medians[0] - 1,
                        bound))
    return lines


def traced_table(run, schemes):
    m = {k: v["value"] for k, v in run["metrics"].items()}
    lines = ["%s; trace.overhead_ratio %.3f"
             % (checks_line("traced run, seed %d" % run["seed"], [run]),
                m["trace.overhead_ratio"]),
             "",
             "| scheme | step_ms | attributed ms | unattributed_ms "
             "| attributed / step_ms | largest layer |",
             "|---|---|---|---|---|---|"]
    for s in schemes:
        layers = {k: m[s + "." + k] for k in ATTRIBUTED}
        attributed = sum(layers.values())
        top = max(layers, key=layers.get)
        lines.append("| %s | %.4f | %.4f | %.4f | %.4f | %s %.4f |"
                     % (s, m[s + ".step_ms"], attributed,
                        m[s + ".unattributed_ms"],
                        attributed / m[s + ".step_ms"], top,
                        layers[top]))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    schemes = [m["name"].split(".")[0] for m in bench["per_layer"]
               if m["name"].endswith(".step_ms")]

    def dump(sub, workload, data):
        os.makedirs(os.path.join(args.out, sub), exist_ok=True)
        with open(os.path.join(args.out, sub, workload + ".json"), "w") as f:
            json.dump(data, f, indent=1)

    results = {}
    for w in workloads:
        run = run_once(w, TRACED_SEED, seconds, 1)
        dump("traced", w, run)
        results["traced", w] = run
        print(checks_line("traced " + w, [run]), flush=True)
    for name in SETS:
        for w in workloads:
            runs = [run_once(w, FIRST_SEED + i, seconds, 0)
                    for i in range(RUNS)]
            dump(name, w, runs)
            results[name, w] = runs
            print(checks_line("%s %s" % (name, w), runs), flush=True)

    lines = ["# Steadiness: two sets of %d runs per workload, seeds %d..%d, "
             "run_seconds %d" % (RUNS, FIRST_SEED, FIRST_SEED + RUNS - 1,
                                 seconds),
             "",
             "The traced runs came first; then set 1 ran every workload, "
             "then set 2 did. IQR/median is the "
             "spread within a set; set2/set1 - 1 is how far the second "
             "set's median moved from the first's (positive is worse). "
             "Traced rows: attributed ms is the sum of the layers' per-step "
             "means (encode by its wall-clock union); unattributed_ms is "
             "step_ms minus it. A failed check count of 0 means every "
             "traced output equalled the untraced one bit for bit and no "
             "traced step's layers added up to more than the step.",
             ""]
    for w in workloads:
        sets = [results[name, w] for name in SETS]
        lines += ["## %s" % w, ""]
        lines += [checks_line(name, runs) + "  " for name, runs
                  in zip(SETS, sets)]
        lines += [""] + set_table(bounds, sets) + [""]
        lines += traced_table(results["traced", w], schemes) + [""]
    with open(os.path.join(args.out, "SUMMARY.md"), "w") as f:
        f.write("\n".join(lines))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
