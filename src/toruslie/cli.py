"""Deterministic command-line runner for the verification suites.

Reports are a pure function of (configuration, seed): rationals are
serialized as exact "p/q" strings, keys are emitted sorted, and timing
fields are zeroed unless --timings is passed, so two runs with the same
configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .glmod import parse_module_name
from .rational import parse_tuple
from .suites import FAIL, SUITES, RunConfig, run_suites


def _usage_error(message):
    """argparse's own errors as ValueError, which main prints as one line."""
    raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toruslie",
        description="Exact verification suites for divergence-zero field "
                    "modules on the Laurent torus.")
    p.add_argument("--n", type=int, default=2,
                   help="number of torus variables (default 2)")
    p.add_argument("--module", default="natural",
                   help="finite module: trivial | natural | ext:k | sym:m | "
                        "adjoint (default natural)")
    p.add_argument("--lambda", dest="twist", default=None, metavar="Q,...",
                   help="twist vector, comma-separated rationals (default 0)")
    p.add_argument("--k", type=int, default=0,
                   help="exterior level for image suites (default: per suite)")
    p.add_argument("--window", default=None, metavar="B,R,L,M",
                   help="central bound, generator bound, depth, margin "
                        "(default: per-rank presets)")
    p.add_argument("--seed", type=int, default=0,
                   help="randomness seed (default 0)")
    p.add_argument("--suite", default=None,
                   help="comma-separated suite names (default: all); "
                        "known: %s" % ", ".join(SUITES))
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times (breaks byte determinism)")
    p.error = _usage_error
    return p


def config_from_args(args) -> RunConfig:
    if args.n < 2:
        raise ValueError("--n %d: need at least two variables" % args.n)
    twist = parse_tuple(args.twist) if args.twist is not None else None
    window = (None, None, None, None)
    if args.window is not None:
        try:
            window = tuple(int(x) for x in args.window.split(","))
        except ValueError:
            window = ()
        if len(window) != 4:
            raise ValueError("--window %r: expected B,R,L,M, four integers"
                             % args.window)
    try:
        parse_module_name(args.module, args.n)
    except ValueError as exc:
        raise ValueError("--module: %s" % exc) from None
    return RunConfig(n=args.n, module=args.module, twist=twist, k=args.k,
                     central=window[0], gen_bound=window[1],
                     depth=window[2], margin=window[3], seed=args.seed)


def emit_json(cfg: RunConfig, results, timings: bool) -> str:
    config = cfg.to_dict()
    config["suites"] = [r.name for r in results]
    report = {
        "config": config,
        "suites": [r.to_dict(timings) for r in results],
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_csv(results, timings: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "status", "checks", "max_rank", "dim",
                     "time_ms", "log_digest"])
    for r in results:
        writer.writerow([
            r.name, r.status, r.counters.get("checks", 0),
            r.counters.get("max_rank", ""), r.counters.get("dim", ""),
            r.time_ms if timings else 0, r.log_digest,
        ])
    return buf.getvalue()


def _attach_values(argv) -> list:
    """argv with `--flag -V` as `--flag=-V`, for any long flag, abbreviated
    or not, when -V starts with a digit, '.' or '/': argparse would read a
    value such as -1/2,1/3 or -1,2,1,2 as a flag of its own."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and re.match(r"-[\d./]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
        names = list(SUITES) if args.suite is None else \
            [s.strip() for s in args.suite.split(",") if s.strip()]
        if not names:
            raise ValueError("--suite %r names no suite (known: %s)"
                             % (args.suite, ", ".join(SUITES)))
        cfg = config_from_args(args)
        results = run_suites(cfg, names)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    text = emit_json(cfg, results, args.timings) if args.format == "json" \
        else emit_csv(results, args.timings)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.out, exc.strerror or exc),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for r in results:
        if r.failures:
            print("suite %s failed:" % r.name, file=sys.stderr)
            for line in r.failures[:10]:
                print("  %s" % line, file=sys.stderr)
    return 1 if any(r.status == FAIL for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
