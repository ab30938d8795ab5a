"""The benchmark's workloads: what one unit is, how the seed makes the
inputs, how a unit runs, and how its result is checked.

A unit is one verification the user waits for: one closure, or one suite
run through the command line.  Inputs are made from the workload seed
before any timing; the package only ever receives the generated inputs.
Nothing here imports toruslie at module level, so that a set-up child can
time the import itself.
"""

from __future__ import annotations

import json
import os
import random

TWIST = "1/2,1/3,1/5"      # generic: no coordinate is an integer
INTEGER_TWIST = "0,0,0"    # the integral case criterion 4 also runs
REFERENCE_SEED = 0         # the seed whose unit fingerprints are pinned

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def unit_count(workload, seconds: int) -> int:
    """Units in one pass: the workload's rounds take about `seconds` on
    the reference box.

    The count depends only on the workload and --seconds, never on the
    speed of the machine, so every commit does the same work.
    """
    return max(workload.min_units,
               round(seconds / (workload.rounds * workload.unit_s)))


class ClosureFill:
    """Window closures of random sym:2 seeds at n=3 with a generic twist.

    The write-heavy path: SpanBasis.insert grows the rank thousands of
    times per closure, with _apply_gen and the closure's own bookkeeping
    (exponent adds, box tests, full-at checks and pruning) around it.
    Each seed has one term, on a random key with a random coefficient, at
    each of DEGREES distinct random degrees of the central box.  The
    1-4-term seeds of probe.random_element give closures of either about
    1 s or about 6 s, so a run of a few of them swings by a quarter from
    seed to seed; these take 3.2-4.1 s, and like those they fill some
    degrees before the centre and prune the generator steps into them.
    Units run once, not in rounds: closures differ in cost from seed to
    seed, so a pass of five distinct closures varies less than one of
    two closures taken three times.
    """

    name = "closure-fill"
    unit_s = 3.7
    rounds = 1
    min_units = 1
    DEGREES = 16

    def setup(self):
        from toruslie import fields, suites, tensor
        from toruslie.rational import parse_tuple
        cfg = suites.RunConfig(n=3, module="sym:2", twist=parse_tuple(TWIST))
        gens = fields.spanning_generators(cfg.n, cfg.gen_bound)
        ctx = tensor.context(cfg.twist, cfg.vmod)
        return {"cfg": cfg, "gens": gens, "ctx": ctx}

    def inputs(self, state, seed: int, count: int) -> list:
        from toruslie import rat, tensor
        from toruslie.indices import box
        ctx = state["ctx"]
        keys = ctx.vmod.keys
        central = list(box(ctx.n, state["cfg"].central))
        rng = random.Random("%s:%d" % (self.name, seed))
        out = []
        for idx in range(count):
            elem = tensor.TensorElement(ctx)
            for s in rng.sample(central, self.DEGREES):
                elem.add_term(s, keys[rng.randrange(len(keys))],
                              rat(rng.choice([-3, -2, -1, 1, 2, 3])))
            out.append(("closure-%d@%d" % (idx, seed), elem))
        return out

    def run(self, state, unit):
        from toruslie import probe
        cfg = state["cfg"]
        return probe.closure([unit], state["gens"], cfg.window, cfg.depth,
                             workers=1)

    def fingerprint(self, result) -> dict:
        return {"verdict": result.verdict,
                "central_rank": result.central_rank,
                "central_dim": result.central_dim,
                "counters": dict(sorted(result.counters.items())),
                "log_digest": result.log_digest}

    def problems(self, fp: dict) -> list:
        out = []
        if fp["verdict"] != "FillsWindow":
            out.append("verdict %s" % fp["verdict"])
        if fp["central_rank"] != fp["central_dim"]:
            out.append("rank %d != dim %d" % (fp["central_rank"], fp["central_dim"]))
        return out


class CliSuites:
    """Suite runs through the command line, one command line per unit.

    Units cycle through `plan`, a list of (suites, twist) where suites is
    a --suite value; each cycle draws a fresh --seed from the workload
    seed.  At this commit a passing suite's fingerprint (status, counters,
    logDigest) does not depend on --seed, so every unit is compared with
    its pinned fingerprint.
    Units run in three rounds.  Set-up builds cold what the suites build:
    the generator family when `generators` is set, and the de Rham hulls
    in `hull_bounds`, given as multiples of the generator bound past the
    central bound.
    """

    def __init__(self, name, plan, unit_s, generators, hull_bounds, window):
        self.name = name
        self.window = window
        self.plan = plan
        self.unit_s = unit_s
        self.generators = generators
        self.rounds = 3
        self.hull_bounds = hull_bounds
        self.min_units = len(plan)

    def argv(self, suite, twist, cli_seed, out=None) -> list:
        args = ["--n", "3", "--lambda", twist, "--seed", str(cli_seed),
                "--suite", suite]
        if self.window:
            args += ["--window", self.window]
        return args + ["--out", out] if out else args

    def setup(self):
        from toruslie import cli, fields, tensor
        for suite, twist in self.plan:
            args = cli.build_parser().parse_args(self.argv(suite, twist, 0))
            cfg = cli.config_from_args(args)
            if self.generators:
                fields.spanning_generators(cfg.n, cfg.gen_bound)
            for k in range(1, cfg.n + 1):
                for extra in self.hull_bounds:
                    tensor.derham_image_graded(k, cfg.twist,
                                               cfg.central + extra * cfg.gen_bound,
                                               cfg.n)
        return {"cli": cli}

    def inputs(self, state, seed: int, count: int) -> list:
        rng = random.Random("%s:%d" % (self.name, seed))
        out = []
        cli_seed = 0
        for idx in range(count):
            if idx % len(self.plan) == 0:
                cli_seed = rng.randrange(1_000_000)
            suite, twist = self.plan[idx % len(self.plan)]
            out.append(("%s@%s" % (suite, twist), (suite, twist, cli_seed)))
        return out

    def run(self, state, unit):
        suite, twist, cli_seed = unit
        path = os.path.join(state["tmpdir"], "report.json")
        code = state["cli"].main(self.argv(suite, twist, cli_seed, path))
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
        return code, report

    def fingerprint(self, result) -> dict:
        code, report = result
        keep = ("name", "status", "counters", "logDigest", "failures")
        return {"exit": code,
                "suites": [{k: suite[k] for k in keep if k in suite}
                           for suite in report["suites"]]}

    def problems(self, fp: dict) -> list:
        out = ["exit %d" % fp["exit"]] if fp["exit"] != 0 else []
        for suite in fp["suites"]:
            if suite["status"] not in ("pass", "evidence-pass"):
                out.append("%s status %s" % (suite["name"], suite["status"]))
            if "failures" in suite:
                out.append("%s failures %s" % (suite["name"], suite["failures"][:3]))
        return out


WORKLOADS = {
    w.name: w for w in (
        ClosureFill(),
        # central bound 1 and the default generators: the default window
        # makes 13.6 s units, too long to repeat in rounds
        CliSuites("image-membership",
                  [("minuscule", TWIST), ("minuscule", INTEGER_TWIST)],
                  unit_s=3.0, generators=True, hull_bounds=(0, 1),
                  window="1,2,1,2"),
        CliSuites("exact-algebra", [("identities,axioms,derham", TWIST)],
                  unit_s=1.1, generators=False, hull_bounds=(0,),
                  window=None),
    )
}
