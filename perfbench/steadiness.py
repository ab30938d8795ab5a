"""Run-to-run steadiness of the end-to-end metrics, in two interleaved sets.

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json ten times for each of two sets,
with --trace 0 and the file's run_seconds, one run at a time.  Set 1
uses seeds 1-10 and set 2 seeds 11-20.  The runs alternate: for each
i, every workload runs seed 1+i and then seed 11+i, so both sets sample
the same drift of the machine.  For every set, workload and end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound, then the
change of set 2's median against set 1's.  It writes the whole record
to steadiness.json beside this file.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEEDS = (1, 1 + RUNS)   # set 1, set 2


def run_once(name: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d incorrect:\n%s" % (name, seed, proc.stderr))
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": json.loads(lines[0])["environment"]}


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for metric, bound in bounds.items():
        values = [r["metrics"][metric] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[metric] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "bound": bound}
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {(s, name): [] for s in range(len(FIRST_SEEDS)) for name in names}
    for i in range(RUNS):
        for name in names:
            for s, first in enumerate(FIRST_SEEDS):
                rec = run_once(name, first + i, spec["run_seconds"])
                runs[s, name].append(rec)
                print("set %d %s seed %d: %s" % (s + 1, name, rec["seed"],
                                                 json.dumps(rec["metrics"])),
                      flush=True)

    record = {"run_seconds": spec["run_seconds"], "sets": []}
    for s in range(len(FIRST_SEEDS)):
        record["sets"].append({
            name: {"summary": summarize(runs[s, name], bounds),
                   "runs": runs[s, name]} for name in names})
    for name in names:
        first, second = (record["sets"][s][name]["summary"]
                         for s in range(len(FIRST_SEEDS)))
        for metric in bounds:
            a, b = first[metric], second[metric]
            print("%-17s %-12s median %10.4f / %10.4f  spread %.3f / %.3f  "
                  "set 2 vs 1 %+.3f (bound %.2f)"
                  % (name, metric, a["median"], b["median"], a["spread"],
                     b["spread"], b["median"] / a["median"] - 1, a["bound"]),
                  flush=True)
    with open(os.path.join(HERE, "steadiness.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
