"""Benchmark of the toruslie verification engine.

    python3 perfbench/run.py --workload closure-fill --seed 1 --seconds 20 --trace 0

Runs one workload on inputs made from --seed, checks every unit's result,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones: setup_s, wall_s, cpu_s, unit_s.p50 and peak_rss_mb.
With --trace 1 the run makes an untraced pass and then a traced pass over
the same units, and reports the per-layer metrics of the traced pass and
the tracing overhead.  The lines before the last one record the
environment and each unit.  The package is imported from the src/
directory beside this one, single-threaded (workers=1).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (sibling module; needs no toruslie)

SETUP_REPEATS = 11

#: the end-to-end metrics of a --trace 0 run: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "unit_s.p50": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up in this process and print it")
    p.add_argument("--reference-only", action="store_true",
                   help="run the reference seed's first unit in this process "
                        "and print its record and peak RSS")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_once(workload) -> float:
    """Cold set-up in this fresh process: import, config, generators, hull."""
    t0 = time.perf_counter()
    import toruslie  # noqa: F401
    workload.setup()
    return time.perf_counter() - t0


def setup_seconds(name: str) -> float:
    """Median cold set-up over fresh child processes, after a warm-up child.

    The warm-up child compiles the package's bytecode, which a checkout
    pays once, not on every start.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_once(workload, pins) -> dict:
    """Set up in this fresh process and run the reference seed's first unit."""
    state = workload.setup()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        state["tmpdir"] = tmp
        units = workload.inputs(state, workloads.REFERENCE_SEED, 1)
        rec = run_units(workload, state, units, pins)[0]
    return {"unit": rec["unit"], "wall": rec["wall"], "problems": rec["problems"],
            "peak_rss_mb": peak_rss_mb()}


def reference_unit(name: str) -> dict:
    """The reference unit's record, from a fresh child process.

    Its result is checked against its pin on every seed, and the child's
    peak RSS depends on neither the seed nor the units run before it.
    """
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--reference-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_units(workload, state, units, pins, rounds=1) -> list:
    """Run the units `rounds` times over; one record per unit.

    A record keeps every round's wall and CPU time, and takes the fastest
    round as the unit's time.  The rounds go through the whole list in
    turn, so one unit's repeats lie seconds apart.  Every round's result
    is checked, and must equal the unit's other rounds.
    """
    records = [{"unit": label, "wall": [], "cpu": [], "problems": []}
               for label, _ in units]
    for _ in range(rounds):
        for rec, (label, unit) in zip(records, units):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = workload.run(state, unit)
            except Exception:
                result = None
                rec["problems"].append("raised: " + traceback.format_exc(limit=3))
            rec["wall"].append(time.perf_counter() - w0)
            rec["cpu"].append(time.process_time() - c0)
            if result is None:
                continue
            fp = workload.fingerprint(result)
            del result
            if "fingerprint" not in rec:
                rec["fingerprint"] = fp
                rec["problems"] += workload.problems(fp)
                if label in pins and pins[label] != fp:
                    rec["problems"].append("fingerprint differs from reference.json")
            elif rec["fingerprint"] != fp:
                rec["problems"].append("result differs between rounds")
    for rec in records:
        rec["wall_s"], rec["cpu_s"] = min(rec["wall"]), min(rec["cpu"])
    return records


def environment() -> dict:
    from tracing import backend
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    pkg = os.path.join(SRC, "toruslie")
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_lines += fh.read().count(b"\n")
    return {"python": sys.version.split()[0], "rational.backend": backend(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "src_lines": src_lines}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toruslie", "__init__.py")):
        print("error: no toruslie package under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    pins = workloads.load_pins().get(workload.name, {})
    if args.setup_only:
        print(repr(setup_once(workload)))
        return 0
    if args.reference_only:
        print(json.dumps(reference_once(workload, pins)))
        return 0

    setup_s = None if args.trace else setup_seconds(workload.name)
    reference = reference_unit(workload.name)
    state = workload.setup()
    state["tmpdir"] = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        units = workload.inputs(state, args.seed,
                                workloads.unit_count(workload, args.seconds))
        records = [reference]
        timed = run_units(workload, state, units, pins,
                          1 if args.trace else workload.rounds)
        records += timed
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            leftovers = tracer.leftovers()
            try:
                traced = run_units(workload, state, units, pins)
            finally:
                tracer.remove()
            for plain, rec in zip(timed, traced):
                if plain.get("fingerprint") != rec.get("fingerprint"):
                    rec["problems"].append("traced result differs from untraced")
            records += traced
    finally:
        shutil.rmtree(state["tmpdir"], ignore_errors=True)

    if args.trace:
        values = tracer.metrics()
        values["trace.overhead_ratio"] = (sum(r["wall_s"] for r in traced)
                                          / sum(r["wall_s"] for r in timed))
        values["rational.muladd_ns"] = tracing.muladd_ns(args.seed)
        metrics = {name: metric(values[name], unit)
                   for name, unit in tracing.PER_LAYER.items()}
        for name in tracer.missing:
            print("warning: traced target %s not found" % name, file=sys.stderr)
        for where in leftovers:
            print("warning: untraced reference %s" % where, file=sys.stderr)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(r["wall_s"] for r in timed),
            "cpu_s": sum(r["cpu_s"] for r in timed),
            "unit_s.p50": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mb": reference["peak_rss_mb"],
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}

    failed = [r for r in records if r["problems"]]
    for rec in failed:
        print("unit %s failed: %s" % (rec["unit"], "; ".join(rec["problems"])),
              file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "trace": args.trace,
                      "units": [[r["unit"], [round(t, 4) for t in r["wall"]],
                                 not r["problems"]] for r in records]}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
