"""Command-line entry point for the summarization pipeline."""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from dataclasses import fields

from .config import PipelineConfig
from .errors import AlignmentError, PipelineError
from .pipeline import STAGES, run_stage

STAGE_CHOICES = (*STAGES, "run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bulletsum",
        description="Question-driven extractive + abstractive bullet-point "
        "summarization pipeline for earnings call transcripts.",
    )
    parser.add_argument("stage", choices=STAGE_CHOICES, help="pipeline stage to run")
    parser.add_argument("--workspace", required=True, help="artifact directory")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument(
        "--seed", type=int, help="master seed; overrides split_seed and lda_seed"
    )
    parser.add_argument("--transcripts", help="transcript .txt directory (ingest/run)")
    parser.add_argument("--summaries", help="summary .txt directory (ingest/run)")

    knobs = parser.add_argument_group(
        "config overrides", "one flag per config field; the README explains each"
    )
    hints = typing.get_type_hints(PipelineConfig)
    for field in fields(PipelineConfig):
        flag = "--" + field.name.replace("_", "-")
        hint = hints[field.name]
        help_text = f"default: {field.default!r}"
        if hint is bool:
            knobs.add_argument(
                flag, dest=field.name, action="store_const", const=True, help=help_text
            )
        else:
            types = typing.get_args(hint) or (hint,)
            (value_type,) = [t for t in types if t is not type(None)]
            knobs.add_argument(flag, dest=field.name, type=value_type, help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    config = config.with_env_urls()
    overrides = {field.name: getattr(args, field.name) for field in fields(PipelineConfig)}
    if args.seed is not None:
        overrides["lda_seed"] = args.seed
        overrides["split_seed"] = args.seed
    return config.with_overrides(**overrides)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        run_stage(
            args.stage,
            config,
            args.workspace,
            transcripts_dir=args.transcripts,
            summaries_dir=args.summaries,
        )
    except PipelineError as exc:
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "stage": args.stage,
        }
        if isinstance(exc, AlignmentError):
            error["offending_ids"] = exc.offending_ids
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
