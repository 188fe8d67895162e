#!/usr/bin/env python3
"""Run the benchmark over many seeds and compare sets of runs.

    # ten untraced runs per workload, seeds 1..10, saved to a file
    python3 perfbench/compare.py run --seeds 1-10 --out base.json
    # spread of each end-to-end metric against its bound
    python3 perfbench/compare.py spread base.json
    # medians of a change against a parent, per workload and metric
    python3 perfbench/compare.py diff base.json change.json
    # exact counts of traced runs must repeat bit for bit per seed
    python3 perfbench/compare.py run --trace 1 --seeds 1,2 --out t1.json
    python3 perfbench/compare.py run --trace 1 --seeds 1,2 --out t2.json
    python3 perfbench/compare.py counts t1.json t2.json

Bounds, directions and workloads come from BENCHMARK.json. Every run
goes through perfbench/run.py, one after another.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that depend on thread timing (how the dispatcher happened to
# batch the frames), so they are not expected to repeat exactly.
TIMING_DEPENDENT = {"serve.mean_batch", "serve.peak_queue_depth"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = str(args.seconds or spec["run_seconds"])
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", seconds,
                   "--trace", args.trace]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "trace": int(args.trace), **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in result["metrics"].items()
                      if args.trace == "0"), flush=True)
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def cmd_spread(args, spec):
    runs = json.load(open(args.results))
    bad = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            vals = values(runs, w["name"], m["name"])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                if share > m["bound"]:
                    flag, bad = "  OVER BOUND", bad + 1
                elif share > m["bound"] / 3:
                    flag = "  over a third of bound"
            print(f"{w['name']:15s} {m['name']:18s} n={len(vals):2d} "
                  f"median={med:.6g} iqr/median={share:.4f} "
                  f"bound={m['bound']}{flag}")
        failed = sum(r["failed"] for r in runs if r["workload"] == w["name"])
        if failed:
            print(f"{w['name']}: {failed} failed operations")
            bad += 1
    sys.exit(1 if bad else 0)


def cmd_diff(args, spec):
    base = json.load(open(args.base))
    change = json.load(open(args.change))
    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = values(base, w["name"], m["name"])
            b = values(change, w["name"], m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / ma
            regress = rel > m["bound"] if m["better"] == "lower" \
                else -rel > m["bound"]
            worse += regress
            print(f"{w['name']:15s} {m['name']:18s} parent={ma:.6g} "
                  f"change={mb:.6g} ({rel:+.2%}, bound {m['bound']:.0%})"
                  + ("  REGRESSION" if regress else ""))
    sys.exit(1 if worse else 0)


def cmd_counts(args, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sets = [json.load(open(p)) for p in args.results]
    keyed = [{(r["workload"], r["seed"]): r for r in s} for s in sets]
    mismatches = 0
    for key in sorted(set(keyed[0]).intersection(*keyed[1:])):
        for name, unit in units.items():
            if unit != "count" or name in TIMING_DEPENDENT:
                continue
            seen = {k[key]["metrics"][name]["value"] for k in keyed}
            if len(seen) != 1:
                mismatches += 1
                print(f"{key[0]} seed {key[1]} {name}: {sorted(seen)}")
    print(f"exact counts: {mismatches} mismatches")
    sys.exit(1 if mismatches else 0)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--trace", choices=("0", "1"), default="0")
    run.add_argument("--out", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("results")
    diff = sub.add_parser("diff")
    diff.add_argument("base")
    diff.add_argument("change")
    counts = sub.add_parser("counts")
    counts.add_argument("results", nargs="+")
    args = parser.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff,
     "counts": cmd_counts}[args.command](args, spec)


if __name__ == "__main__":
    main()
