"""Command-line entry point.

Exit codes: 0 every check passed / export written, 1 at least one check
failed, 2 configuration or input/output error.  The HURWITZ_SEED
environment variable overrides the config-file seed; an explicit --seed
flag overrides both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ConfigInvalid, HurwitzError
from .harness import SuiteConfig, fields_cmd, run_suite, separate_cmd


# built once per process, on first use: each build repeats argparse's
# gettext lookups, which stat locale files; parse_args keeps no state
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hurwitz",
        description="Verification suite and exports for the 8-to-5 "
        "quadratic transformation library.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full invariant suite")
    v.add_argument("--config", help="JSON file of suite settings")
    v.add_argument("--seed", type=int, help="override the sampling seed")
    v.add_argument("--json", dest="json_out", help="write the report here")

    f = sub.add_parser("fields", help="export potential samples")
    f.add_argument("--case", choices=("A", "B"), required=True)
    f.add_argument("-n", type=int, required=True, help="number of points")
    f.add_argument("--out", required=True)
    f.add_argument("--region", default="shell:0.5,2.0",
                   help="shell:RMIN,RMAX | box:LO,HI | point:x1,..,x5")
    f.add_argument("--seed", type=int, default=None)

    s = sub.add_parser("separate", help="export per-axis separation data")
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--case", choices=("A", "B"), required=True)
    s.add_argument("--point", required=True, help="x1,x2,x3,x4,x5")
    s.add_argument("--branch", default="alternating")
    s.add_argument("--out", required=True)
    return ap


def _resolve_seed(cli_seed, cfg_seed) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("HURWITZ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigInvalid(f"HURWITZ_SEED is not an integer: {env!r}") from exc
    return cfg_seed


def _reject_constant(name: str):
    raise ConfigInvalid(f"config holds {name}, which strict JSON does not allow")


def _cmd_verify(args) -> int:
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(settings, dict):
            raise ConfigInvalid("config must be a JSON object of suite settings")
        unknown = set(settings) - {
            "seed", "samples", "fd_step", "tolerances", "cases", "J_max",
            "exclusion_eps",
        }
        if unknown:
            raise ConfigInvalid(f"unknown config keys {sorted(unknown)}")
    seed = _resolve_seed(args.seed, settings.get("seed", SuiteConfig.seed))
    cfg = SuiteConfig(**{**settings, "seed": seed})
    report = run_suite(cfg)
    for line in report.summary_lines():
        print(line)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _cmd_fields(args) -> int:
    seed = _resolve_seed(args.seed, 1729)
    meta = fields_cmd(args.case, args.n, args.out, region=args.region, seed=seed)
    print(json.dumps(meta, sort_keys=True))
    return 0


def _cmd_separate(args) -> int:
    point = [float(v) for v in args.point.split(",")]
    summary = separate_cmd(args.j, args.p, args.case, point, args.out,
                           branch=args.branch)
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fields":
            return _cmd_fields(args)
        return _cmd_separate(args)
    except (ConfigInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HurwitzError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
