"""Pipeline benchmark: seeded corpus, repeated pipeline runs, checks, metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload route --seed 1 --seconds 30 --trace 0

The workload seed drives the corpus generator; the pipeline sees only the
generated files. The load is a closed loop from one process: pipeline runs
follow one another, each in a fresh process (``bench/round.py``), until
``--seconds`` have passed, with at least two untraced runs. In the
``remote`` workload every run gets its own service stub process. With
``--trace 1`` one more run records spans and the per-layer metrics come from
it. The first untraced run's workspace is checked against independent
computations and every run's workspace must be byte-identical to it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one train
document processed by ``extract`` or one test document summarised by
``route`` and ``generate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_workspace, read_jsonl
from corpus_gen import generate_corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
ROUND_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    docs: int
    config: dict = field(default_factory=dict)
    remote: bool = False


# Why each workload exists is in README.md.
WORKLOADS = {
    "fit": Workload(docs=48),
    "route": Workload(docs=400, config={"lda_iters": 20}),
    "remote": Workload(docs=120, config={"lda_iters": 20}, remote=True),
}

STAGES = ("ingest", "qgen", "topics", "extract", "route", "generate", "eval")
FIT_STAGES = ("qgen", "topics", "extract")
TEST_STAGES = ("route", "generate", "eval")


def digest_tree(root: Path, stub_url: str | None) -> str:
    """Digest of a workspace.

    The OS picks the stub's port anew for every run, so the config snapshots
    are digested with the stub URL masked and without their config hash.
    """
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if stub_url and path.name == "config.json":
            snapshot = json.loads(data)
            del snapshot["hash"]
            for key, value in snapshot["config"].items():
                if value == stub_url:
                    snapshot["config"][key] = "<stub>"
            data = json.dumps(snapshot, sort_keys=True).encode("utf-8")
        sha.update(str(path.relative_to(root)).encode("utf-8") + b"\0" + data)
    return sha.hexdigest()


@contextmanager
def service_stub(log: Path):
    """A stub process for one pipeline run; yields (base URL, stats dict)."""
    stats: dict = {}
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
    try:
        first = proc.stdout.readline().split()
        if len(first) != 2 or first[0] != "port":
            raise RuntimeError("service stub did not start; see " + str(log))
        yield f"http://127.0.0.1:{first[1]}", stats
        proc.stdin.close()
        stats.update(json.loads(proc.stdout.readline()))
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()


def run_round(workload: Workload, corpus: Path, workspace: Path, trace: Path | None, log: Path) -> dict:
    """One pipeline run in a fresh process; returns its timings and stub counters."""
    config = dict(workload.config)
    env = dict(os.environ)
    for name in ("BULLETSUM_QG_URL", "BULLETSUM_EMBED_URL", "BULLETSUM_GENERATE_URL"):
        env.pop(name, None)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"

    def child(extra_config: dict) -> dict:
        argv = [sys.executable, str(BENCH / "round.py"), str(ROOT), str(corpus), str(workspace)]
        argv.append(json.dumps({**config, **extra_config}))
        if trace:
            argv.append(str(trace))
        with open(log, "ab") as err:
            done = subprocess.run(
                argv, stdout=subprocess.PIPE, stderr=err, env=env, timeout=ROUND_TIMEOUT_S, check=False
            )
        if done.returncode != 0:
            raise RuntimeError(f"pipeline run exited with {done.returncode}; see {log}")
        return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])

    if not workload.remote:
        return {**child({}), "stub": {}, "stub_url": None}
    with service_stub(log) as (url, stats):
        result = child({"qg_url": url, "embed_url": url, "generate_url": url})
    return {**result, "stub": stats, "stub_url": url}


def operations(workspace: Path) -> int:
    extracted = len(read_jsonl(workspace / "extract" / "contexts.jsonl"))
    summarised = len(json.loads((workspace / "generate" / "predictions.json").read_text("utf-8")))
    return extracted + summarised


def end_to_end(rounds: list[dict], workspace: Path) -> dict:
    n_test = len(json.loads((workspace / "ingest" / "split.json").read_text("utf-8"))["test"])
    report = json.loads((workspace / "eval" / "report.json").read_text("utf-8"))

    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "fit_s": (statistics.median(sum(r["stage_s"][s] for s in FIT_STAGES) for r in rounds), "s"),
        # Pooled over the runs: test documents summarised per second of
        # route + generate + eval.
        "test_docs_per_s": (
            n_test * len(rounds) / sum(r["stage_s"][s] for r in rounds for s in TEST_STAGES),
            "1/s",
        ),
        "total_s": (statistics.median(r["total_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "rouge1_f1": (report["rouge1"]["f1"], "F1"),
        "rouge2_f1": (report["rouge2"]["f1"], "F1"),
        "rougeL_f1": (report["rougeL"]["f1"], "F1"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(traced: dict, spans: list[dict], workspace: Path, untraced_total_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced run; also returns accounting faults."""
    sys.path.insert(0, str(ROOT / "src"))
    from bulletsum.generator import DEFAULT_INSTRUCTION
    from bulletsum.text import QUESTION_STOPWORDS, tokenize

    config = json.loads((workspace / "topics" / "config.json").read_text("utf-8"))["config"]
    by_id = {s["id"]: s for s in spans}
    faults = []

    def secs(span):
        return (span["end_ns"] - span["start_ns"]) / 1e9

    def total(*names):
        return sum(secs(s) for s in spans if s["name"] in names)

    def inside(span, name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    values: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        (stage_span,) = [s for s in spans if s["name"] == f"pipeline.{stage}"]
        children = sorted(
            (s for s in spans if s["parent"] == stage_span["id"]), key=lambda s: s["start_ns"]
        )
        end = stage_span["start_ns"]
        for child in children:
            if child["start_ns"] < end or child["end_ns"] > stage_span["end_ns"]:
                faults.append(f"trace: span {child['name']} overlaps another in stage {stage}")
            end = child["end_ns"]
        self_s = secs(stage_span) - sum(secs(c) for c in children)
        values[f"pipeline.{stage}_s"] = (secs(stage_span), "s")
        values[f"pipeline.{stage}_self_s"] = (self_s, "s")

    bank = json.loads((workspace / "qgen" / "question_bank.json").read_text("utf-8"))
    corpus = json.loads((workspace / "ingest" / "corpus.json").read_text("utf-8"))["transcripts"]
    categorized = json.loads((workspace / "topics" / "question_bank.json").read_text("utf-8"))["master"]
    buckets: dict[str, int] = {}
    for q in categorized:
        for topic in q["topics"]:
            buckets[topic] = buckets.get(topic, 0) + 1
    extract = read_jsonl(workspace / "extract" / "contexts.jsonl")
    chosen = {r["doc_id"]: r["questions"] for r in read_jsonl(workspace / "route" / "questions.jsonl")}
    detections = read_jsonl(workspace / "route" / "detections.jsonl")
    route_contexts = read_jsonl(workspace / "route" / "contexts.jsonl")

    tokens = sum(
        len([t for t in tokenize(q["text"]) if t not in QUESTION_STOPWORDS]) for q in bank["master"]
    )
    retrieval_pairs = sum(len(bank["per_doc"][r["doc_id"]]) * len(corpus[r["doc_id"]]) for r in extract)
    retrieval_pairs += sum(len(chosen[d]) * len(corpus[d]) for d in chosen)
    router_pairs = sum(buckets.get(d["topic_id"], 0) for r in detections for d in r["detected"])
    budget = config["max_input_tokens"] - len(DEFAULT_INSTRUCTION.split())
    embeds = [s for s in spans if s["name"] in ("retrieval.embed", "services.embed")]
    stub = traced["stub"]
    client_s = total("services.question", "services.embed", "services.generate")

    fit_lda_s = total("topics.fit_lda")
    build_context_s = total("retrieval.build_context")
    select_s = total("router.select")
    values.update(
        {
            "corpus.load_s": (total("corpus.load"), "s"),
            "qbank.build_s": (total("qbank.build"), "s"),
            "topics.fit_lda_s": (fit_lda_s, "s"),
            "topics.ns_per_token_topic": (
                fit_lda_s * 1e9 / (tokens * config["num_topics"] * config["lda_iters"]), "ns"
            ),
            "topics.label_s": (total("topics.keywords", "topics.categorize"), "s"),
            "retrieval.embedder_fit_s": (total("retrieval.embedder_fit"), "s"),
            "retrieval.embed_s": (total("retrieval.embed", "services.embed"), "s"),
            "retrieval.build_context_s": (build_context_s, "s"),
            "retrieval.ns_per_pair": (build_context_s * 1e9 / retrieval_pairs, "ns"),
            "router.detect_s": (total("router.detect"), "s"),
            "router.select_s": (select_s, "s"),
            "router.ns_per_pair": (select_s * 1e9 / router_pairs, "ns"),
            "generator.prompt_s": (total("generator.prompt"), "s"),
            "generator.generate_s": (total("generator.generate"), "s"),
            "generator.export_s": (total("generator.export"), "s"),
            "metrics.eval_s": (total("metrics.eval"), "s"),
            "services.client_s": (client_s, "s"),
            "services.wait_s": (client_s - stub.get("busy_s", 0.0), "s"),
            "services.connections": (stub.get("connections", 0), "count"),
            "services.qg_requests": (stub.get("qg_requests", 0), "count"),
            "services.embed_requests": (stub.get("embed_requests", 0), "count"),
            "services.generate_requests": (stub.get("generate_requests", 0), "count"),
            "services.request_bytes": (stub.get("request_bytes", 0), "bytes"),
            "services.response_bytes": (stub.get("response_bytes", 0), "bytes"),
            "services.stub_busy_s": (stub.get("busy_s", 0.0), "s"),
            "pipeline.artifact_bytes": (
                sum(p.stat().st_size for p in workspace.rglob("*") if p.is_file()), "bytes"
            ),
            "topics.tokens": (tokens, "count"),
            "qbank.master_questions": (len(bank["master"]), "count"),
            "retrieval.pairs": (retrieval_pairs, "count"),
            "retrieval.embedded_texts": (sum(s["texts"] for s in embeds), "count"),
            "router.pairs": (router_pairs, "count"),
            "router.master_embeds": (
                sum(
                    s.get("master_texts", 0)
                    for s in embeds
                    if not inside(s, "retrieval.build_context")
                ),
                "count",
            ),
            "generator.truncated_prompts": (
                sum(len(r["context_text"].split()) > budget for r in route_contexts), "count"
            ),
            "trace.overhead_s": (traced["total_s"] - untraced_total_s, "s"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, faults


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Generate the corpus, run the pipeline repeatedly, check, and measure."""
    log = run_dir / "stderr.log"
    corpus = run_dir / "corpus"
    shape = generate_corpus(ROOT, corpus, workload.docs, seed)
    print(
        f"corpus: {shape['docs']} docs, {shape['mean_doc_words']:.1f} words per doc, "
        f"compression ratio {shape['compression_ratio']:.1f}",
        flush=True,
    )

    first = run_dir / "ws0"
    trace_path = WORK / "traces" / f"{name}-{seed}.jsonl"
    traced_ws = run_dir / "ws-traced"
    traced = None
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    rounds = []
    attempted = 0
    digests = set()
    started = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - started < seconds:
        workspace = first if not rounds else run_dir / "ws"
        shutil.rmtree(workspace, ignore_errors=True)
        rounds.append(run_round(workload, corpus, workspace, None, log))
        print(f"run {len(rounds)}: " + json.dumps(rounds[-1]["stage_s"]), file=sys.stderr, flush=True)
        attempted += operations(workspace)
        digests.add(digest_tree(workspace, rounds[-1]["stub_url"]))
        if trace and traced is None:
            traced = run_round(workload, corpus, traced_ws, trace_path, log)
            attempted += operations(traced_ws)
            digests.add(digest_tree(traced_ws, traced["stub_url"]))

    faults = check_workspace(first, corpus, shape, workload.remote)
    if len(digests) != 1:
        faults.append(f"runs with one seed left {len(digests)} different workspaces")
    if trace:
        untraced_total_s = statistics.median(r["total_s"] for r in rounds)
        metrics, trace_faults = per_layer(
            traced, read_jsonl(trace_path), traced_ws, untraced_total_s
        )
        faults += trace_faults
    else:
        metrics = end_to_end(rounds, first)
    for fault in faults[:50]:
        print(f"CHECK FAILED: {fault}", file=sys.stderr)
    return {"correct": not faults, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bulletsum pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bulletsum" / "pipeline.py").is_file():
        print(f"no bulletsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the pipeline and stub processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        log = run_dir / "stderr.log"
        if log.is_file():
            sys.stderr.write(log.read_text("utf-8", errors="replace")[-4000:])
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
