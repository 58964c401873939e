"""One pipeline run in a fresh process: import, then the seven stages.

Usage::

    python3 bench/round.py ROOT CORPUS WORKSPACE CONFIG_JSON [TRACE_JSONL]

It imports ``bulletsum`` from ``ROOT/src``, runs every stage through
``bulletsum.pipeline.run_stage`` on the corpus in ``CORPUS`` and prints one
JSON line: ``setup_s`` (import plus ingest), the wall time of each stage,
``total_s`` and ``peak_rss_mb``. With ``TRACE_JSONL`` it records spans and
writes them there when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import logging
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    root, corpus, workspace, config_json = argv[:4]
    trace_path = argv[4] if len(argv) > 4 else None
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    from bulletsum import pipeline
    from bulletsum.config import PipelineConfig

    if src not in Path(pipeline.__file__).resolve().parents:
        print(f"bulletsum was imported from {pipeline.__file__}, not {src}", file=sys.stderr)
        return 2
    # As the CLI does; the parent keeps stderr in a file.
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer(run_id=Path(trace_path).stem)
        tracer.install()

    config = PipelineConfig.from_dict(json.loads(config_json))
    transcripts = Path(corpus) / "transcripts"
    summaries = Path(corpus) / "summaries"
    stage_s = {}
    setup_s = None
    for stage in pipeline.STAGES:
        if tracer:
            tracer.master_texts = frozenset()
            if stage == "route":
                bank = json.loads((Path(workspace) / "qgen" / "question_bank.json").read_text("utf-8"))
                tracer.master_texts = frozenset(q["text"] for q in bank["master"])
        begun = time.perf_counter()
        with tracer.span(f"pipeline.{stage}") if tracer else contextlib.nullcontext():
            pipeline.run_stage(stage, config, workspace, transcripts, summaries)
        ended = time.perf_counter()
        stage_s[stage] = ended - begun
        if stage == "ingest":
            setup_s = ended - started
    total_s = time.perf_counter() - started
    if tracer:
        tracer.write(trace_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {"setup_s": setup_s, "stage_s": stage_s, "total_s": total_s, "peak_rss_mb": peak_rss_mb}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
