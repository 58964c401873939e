"""Command-line entry point for the summarization pipeline."""

from __future__ import annotations

import argparse
import json
import logging
import sys
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

    knobs = parser.add_argument_group("config overrides")
    knobs.add_argument("--k", type=int, help="sentences retrieved per question")
    knobs.add_argument("--num-topics", type=int, dest="num_topics")
    knobs.add_argument("--keywords-per-topic", type=int, dest="keywords_per_topic")
    knobs.add_argument("--q-per-topic", type=int, dest="q_per_topic")
    knobs.add_argument("--lda-iters", type=int, dest="lda_iters")
    knobs.add_argument("--lda-seed", type=int, dest="lda_seed")
    knobs.add_argument("--split-seed", type=int, dest="split_seed")
    knobs.add_argument("--max-input-tokens", type=int, dest="max_input_tokens")
    knobs.add_argument("--max-new-tokens", type=int, dest="max_new_tokens")
    knobs.add_argument("--instruction-file", dest="instruction_file")
    knobs.add_argument("--separator", dest="separator")
    knobs.add_argument("--stopword-file", dest="stopword_file")
    knobs.add_argument(
        "--qg-fallback",
        action="store_const",
        const=True,
        dest="qg_fallback",
        help="fall back to the template generator on QG service errors",
    )
    knobs.add_argument(
        "--fallback-on-empty-detection",
        action="store_const",
        const=True,
        dest="fallback_on_empty_detection",
        help="use the full master list when a test document matches no topic",
    )
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    config = config.with_env_urls()
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(PipelineConfig)
        if hasattr(args, field.name)
    }
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
