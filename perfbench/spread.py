#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, its median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the
median), against the bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads fig14,attack] [--baseline perfbench/baseline.json]

With --baseline, the medians and quartiles are written there together
with the host description and the seed held out for claims.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# Never used while tuning the benchmark or a change: a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 4242


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=False, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--baseline", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))
    report = {}
    steady = True
    for workload in workloads:
        values = {}
        for seed in seeds:
            for name, v in run(bench["command"], workload, seed, bench["run_seconds"]).items():
                values.setdefault(name, []).append(v)
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
            print(f"{workload:<13} {name:<13} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {metric['bound']:.2f}  {'ok' if ok else 'WIDE'}"
                  f"  [{' '.join(f'{v:.4g}' for v in values[name])}]", flush=True)

    if opts.baseline:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
        baseline = {
            "host": {"nproc": len(os.sched_getaffinity(0)), "rustc": rustc, "machine": platform.machine()},
            "held_out_seed": HELD_OUT_SEED,
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "workloads": report,
        }
        with open(opts.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
