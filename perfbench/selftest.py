"""Self-test of the benchmark, and the tool that pins reference fingerprints.

    python3 perfbench/selftest.py          # check; exit 0 when all holds
    python3 perfbench/selftest.py --pin    # rewrite reference.json

The check runs a short traced pass of every workload (seed 0, one second
of work) and asserts:

- the result is correct: every unit passes and matches its pin;
- tracing reached every target, and no traced function is still held
  unwrapped anywhere in the package;
- the predicted zero/non-zero pattern of the per-layer metrics, which
  says that each layer has one workload where it does most of the work
  and one where it does almost none;
- BENCHMARK.json names exactly the workloads and metrics run.py emits.

Pinning runs the reference seed's units and stores their fingerprints.
Re-pin only for a change that is meant to change results (a digest
change is a behaviour change, not a speed-up).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLOSURE = ["probe.closure.calls", "probe.closure.apps", "probe.closure.inserts",
           "probe.closure.pruned"]
SUITES = ["suites.identities.s", "suites.axioms.s", "suites.derham.s",
          "suites.minuscule.s"]

#: workload -> (metrics that must be non-zero, metrics that must be zero)
PATTERN = {
    "closure-fill": (
        CLOSURE + ["linalg.insert.calls", "probe.apply_gen.calls",
                   "indices.add.calls", "glmod.unit_table.calls"],
        SUITES + ["cli.emit_json.s", "tensor.image_probe.calls",
                  "probe.kernel_at.calls", "probe.coeff_extract.calls",
                  "linalg.reduce.calls", "linalg.kernel_of_map.calls",
                  "weyl.commutator.calls",
                  "fields.bracket.calls", "tensor.act_direct.calls",
                  # built once in set-up, before the pass
                  "fields.spanning_generators.calls"]),
    "image-membership": (
        ["linalg.reduce.calls", "linalg.kernel_of_map.calls",
         "probe.apply_gen.calls", "probe.kernel_at.calls",
         "probe.coeff_extract.calls", "tensor.image_probe.calls",
         "tensor.derham_image_graded.calls", "fields.spanning_generators.calls",
         "suites.minuscule.s", "cli.emit_json.s"],
        CLOSURE + ["suites.identities.s", "suites.axioms.s", "suites.derham.s",
                   "weyl.commutator.calls", "weyl.operator_apply.calls",
                   "fields.bracket.calls", "fields.field_apply.calls"]),
    "exact-algebra": (
        ["weyl.commutator.calls", "weyl.operator_apply.calls",
         "fields.bracket.calls", "fields.field_apply.calls",
         "tensor.act_direct.calls", "tensor.derham_map.calls",
         "glmod.module_builds", "suites.identities.s", "suites.axioms.s",
         "suites.derham.s", "cli.emit_json.s"],
        CLOSURE + ["probe.apply_gen.calls", "tensor.image_probe.calls",
                   "probe.coeff_extract.calls", "suites.minuscule.s",
                   "fields.spanning_generators.calls"]),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pin() -> None:
    """Pin every unit of a full pass of the reference seed."""
    sys.path.insert(0, run.SRC)
    seconds = load_spec()["run_seconds"]
    pins = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup()
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
            state["tmpdir"] = tmp
            units = workload.inputs(state, workloads.REFERENCE_SEED,
                                    workloads.unit_count(workload, seconds))
            records = run.run_units(workload, state, units, {})
        bad = [r for r in records if r["problems"]]
        if bad:
            raise SystemExit("cannot pin %s: %s" % (name, bad[0]["problems"]))
        pins[name] = {r["unit"]: r["fingerprint"] for r in records}
        print("pinned %d units of %s" % (len(records), name))
    with open(workloads.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_manifest() -> list:
    spec = load_spec()
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, emitted in (("end_to_end", run.END_TO_END),
                         ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != emitted:
            errors.append("BENCHMARK.json %s differs from what run.py emits: %s"
                          % (key, sorted(set(listed.items()) ^ set(emitted.items()))))
    return errors


def check_workload(name: str) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(workloads.REFERENCE_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (name, proc.returncode, proc.stderr)]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if not result["correct"]:
        errors.append("%s: incorrect\n%s" % (name, proc.stderr))
    if "warning:" in proc.stderr:
        errors.append("%s: tracing incomplete\n%s" % (name, proc.stderr))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(tracing.PER_LAYER):
        errors.append("%s: per-layer metrics missing" % name)
    nonzero, zero = PATTERN[name]
    for key in nonzero:
        if not metrics[key]["value"]:
            errors.append("%s: %s is 0, predicted non-zero" % (name, key))
    for key in zero:
        if metrics[key]["value"]:
            errors.append("%s: %s is %s, predicted 0"
                          % (name, key, metrics[key]["value"]))
    return errors


def main(argv) -> int:
    if argv == ["--pin"]:
        pin()
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check_manifest()
    for name in workloads.WORKLOADS:
        found = check_workload(name)
        print("%s %s" % ("FAIL" if found else "ok  ", name))
        errors += found
    for line in errors:
        print(line, file=sys.stderr)
    print("selftest %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
