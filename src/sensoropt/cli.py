"""Command-line interface: place, oracle."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .pipeline import PipelineError, run_oracle, run_pipeline, write_oracle, write_report
from .solver import ENUMERATION_CAP


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensoropt",
        description="Information-optimal sensor placement for shear buildings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="run the full placement pipeline")
    oracle = sub.add_parser(
        "oracle",
        help=f"exhaustive combinatorial optimum, refused above {ENUMERATION_CAP:,} configurations",
    )

    for p in (place, oracle):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="sensoropt-run", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def _resolve_out(name: str) -> Path:
    """The output directory, checked before any stage runs and not created.

    It must be a directory or not exist yet, and its nearest existing
    ancestor must be a directory, so that a run cannot place for seconds
    and then fail to write.
    """
    out = Path(name)
    path = out.absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    return out


def _load(args):
    """The run configuration, with ``--seed`` validated as its ``seed`` key."""
    overrides = {} if args.seed is None else {"seed": args.seed}
    return load_config(args.config, overrides)


def _run_place(args) -> int:
    config = _load(args)
    out = _resolve_out(args.out)
    report = run_pipeline(config)
    write_report(report, out)
    if not args.quiet:
        stories = ", ".join(map(str, report.placement.stories))
        print(f"instrumented stories : {stories}")
        print(f"objective (binary)   : {report.placement.objective_binary:.6f}")
        print(f"certified optimal    : {'yes' if report.placement.certified_optimal else 'no'}")
        print(f"report written to    : {out}")
    return 0


def _run_oracle(args) -> int:
    config = _load(args)
    out = _resolve_out(args.out)
    result = run_oracle(config)
    path = write_oracle(result, config, out)
    if not args.quiet:
        print(f"exhaustive optimum   : {', '.join(map(str, result.stories))}")
        print(f"objective value      : {result.objective_value:.6f}")
        print(f"configurations tried : {result.n_evaluations}")
        print(f"oracle written to    : {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return _run_oracle(args)
        return _run_place(args)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading and the stages raise the errors above
        print(f"error writing report: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
