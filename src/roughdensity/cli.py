"""Command-line workbench: run experiments from JSON configs, summarize
artifact directories, list fixtures.  It imports no numerical module until
a command needs one: `report` and a config error load no numpy."""

from __future__ import annotations

import argparse
import json
import sys

from .runner import EXIT_CONFIG, ConfigError, run, summarize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughdensity",
        description="Gaussian rough path workbench: covariance diagnostics, "
                    "Monte-Carlo density tails, small-noise rate functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", required=True, help="artifact directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker count (default: ROUGHDENSITY_WORKERS "
                            "or the CPUs this process may use)")
    p_run.add_argument("--verbose", action="store_true")

    p_rep = sub.add_parser("report", help="summarize an artifact directory")
    p_rep.add_argument("artifact_dir")

    sub.add_parser("list-fixtures", help="show kernel and field catalogs")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            code = run(config, args.out, workers=args.workers)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        if args.verbose:
            print(summarize(args.out))
        return code

    if args.command == "report":
        try:
            print(summarize(args.artifact_dir))
        except FileNotFoundError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return 0

    if args.command == "list-fixtures":
        from .fields import FIELD_CATALOG

        print("kernel families: fbm(H), bifbm(H,K), sum_fbm(H1,H2), "
              "stationary(F: power), fourier(C,k_max), fou(H,lam)")
        print("vector fields:", ", ".join(sorted(FIELD_CATALOG)))
        return 0

    return EXIT_CONFIG   # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
