"""Traced run: the real CLI chain, with a span around every public call.

``instrumented`` replaces, for the length of a ``with`` block, each public
name that ``semepred.cli`` looks up (and the two that
``recommender.recommend`` looks up) with a wrapper that records a span.
The stages then run through ``semepred.cli.main`` exactly as in the
untraced chain, so there is no copy of the commands to drift.  Spans are
kept in memory (name, start, end, parent) and turned into per-layer
metrics when the chain ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import semepred.cli as cli
from semepred import recommender
from semepred.embeddings import EmbeddingTable
from semepred.graph import TripletStore
from semepred.recommender import SemanticVectorStore

from chain import STAGES, Layout, StageRun, run_stages
from workloads import Workload

PER_TARGET = (
    "kge.rank_sememes",
    "recommender.rank_neighbors",
    "recommender.score_sememes",
    "fusion.fuse",
    "fusion.threshold_select",
)

# (name, unit, better) of the per-layer metrics the benchmark reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("synthetic.generate.total_s", "s", "lower"),
    ("graph.load_triplets.calls", "count", "lower"),
    ("graph.load_triplets.total_s", "s", "lower"),
    ("graph.load_triplets.lines_per_s", "1/s", "higher"),
    ("graph.split_dataset.total_s", "s", "lower"),
    ("graph.save_triplets.total_s", "s", "lower"),
    ("kge.train.total_s", "s", "lower"),
    ("kge.train.epoch_s", "s", "lower"),
    ("kge.train.triplets_per_s", "1/s", "higher"),
    ("kge.train.loss_last", "loss", "lower"),
    ("embeddings.EmbeddingTable.save.total_s", "s", "lower"),
    ("embeddings.EmbeddingTable.load.total_s", "s", "lower"),
    ("embeddings.EmbeddingTable.bytes", "B", "lower"),
    ("recommender.SemanticVectorStore.load.total_s", "s", "lower"),
    ("recommender.SemanticVectorStore.bytes", "B", "lower"),
    *(
        (f"{name}.{field}", unit, "lower")
        for name in PER_TARGET
        for field, unit in (("calls", "count"), ("total_s", "s"), ("median_s", "s"), ("tail_s", "s"))
    ),
    ("recommender.neighbors_scanned", "count", "lower"),
    ("recommender.coverage", "ratio", "higher"),
    ("fusion.save_predictions.total_s", "s", "lower"),
    ("fusion.save_predictions.bytes", "B", "lower"),
    ("fusion.load_predictions.calls", "count", "lower"),
    ("fusion.load_predictions.total_s", "s", "lower"),
    ("fusion.load_predictions.rows", "count", "lower"),
    ("evaluation.evaluate.total_s", "s", "lower"),
    ("evaluation.bucket_analysis.total_s", "s", "lower"),
    ("evaluation.sememe_difficulty.total_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"cli.{stage}.total_s", "s", "lower") for stage in STAGES),
    ("trace.tail_pct", "%", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder for one traced chain; it holds spans in memory only."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self.loaded: list[Path] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


# -- what is wrapped ------------------------------------------------------


def _loaded(t: Tracer, args: tuple, result) -> None:
    t.loaded.append(Path(args[0]))


def _trained(t: Tracer, args: tuple, result) -> None:
    t.counts["kge.train.epochs"] += args[1].epochs
    t.values["kge.train.loss_last"] = result.trace[-1].total


def _scanned(t: Tracer, args: tuple, result) -> None:
    t.counts["recommender.neighbors_scanned"] += len(result)


def _covered(t: Tracer, args: tuple, result) -> None:
    t.counts["recommender.covered"] += 1


def _rows(t: Tracer, args: tuple, result) -> None:
    t.counts["fusion.load_predictions.rows"] += len(result)


# (owner, attribute, span name, hook called with the arguments and result
# of a call that returned)
WRAPPED: tuple[tuple[object, str, str, Callable | None], ...] = (
    (cli, "generate", "synthetic.generate", None),
    (cli, "load_triplets", "graph.load_triplets", _loaded),
    (TripletStore, "filter_low_frequency", "graph.filter_low_frequency", None),
    (TripletStore, "split_dataset", "graph.split_dataset", None),
    (cli, "save_triplets", "graph.save_triplets", None),
    (cli, "save_pos_tags", "graph.save_pos_tags", None),
    (cli, "train", "kge.train", _trained),
    (cli, "save_loss_trace", "kge.save_loss_trace", None),
    (cli, "rank_sememes", "kge.rank_sememes", None),
    (EmbeddingTable, "save", "embeddings.EmbeddingTable.save", None),
    (EmbeddingTable, "load", "embeddings.EmbeddingTable.load", None),
    (SemanticVectorStore, "save", "recommender.SemanticVectorStore.save", None),
    (SemanticVectorStore, "load", "recommender.SemanticVectorStore.load", None),
    (cli, "recommend", "recommender.recommend", _covered),
    (recommender, "rank_neighbors", "recommender.rank_neighbors", _scanned),
    (recommender, "score_sememes", "recommender.score_sememes", None),
    (cli, "fuse", "fusion.fuse", None),
    (cli, "threshold_select", "fusion.threshold_select", None),
    (cli, "save_predictions", "fusion.save_predictions", None),
    (cli, "load_predictions", "fusion.load_predictions", _rows),
    (cli, "evaluate", "evaluation.evaluate", None),
    (cli, "save_report_jsonl", "evaluation.save_report_jsonl", None),
    (cli, "bucket_analysis", "evaluation.bucket_analysis", None),
    (cli, "save_bucket_csv", "evaluation.save_bucket_csv", None),
    (cli, "sememe_difficulty", "evaluation.sememe_difficulty", None),
    (cli, "save_difficulty_table", "evaluation.save_difficulty_table", None),
)


def _traced(t: Tracer, name: str, fn: Callable, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with t.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(t, args, result)
        return result

    return call


@contextmanager
def instrumented(t: Tracer) -> Iterator[None]:
    """Every name in ``WRAPPED`` records spans into ``t`` inside the block,
    and is restored on the way out."""
    saved = []
    try:
        for owner, attr, name, hook in WRAPPED:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            wrapper = _traced(t, name, getattr(owner, attr), hook)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_traced(workload: Workload, layout: Layout, seed: int) -> tuple[Tracer, dict[str, StageRun]]:
    """The whole chain through ``semepred.cli.main``, instrumented; each
    command is a ``cli.<stage>`` span.  Stops after the first failed stage."""
    t = Tracer()
    runs: dict[str, StageRun] = {}
    with instrumented(t):
        for stage in STAGES:
            with t.span(f"cli.{stage}"):
                runs.update(run_stages((stage,), workload, layout, seed))
            if runs[stage].code != 0:
                break
    return t, runs


# -- per-layer metrics ----------------------------------------------------


def _nonblank_lines(path: Path) -> list[bytes]:
    with open(path, "rb") as fh:
        return [line for line in fh if line.strip()]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 0


def call_sites(t: Tracer) -> dict[str, list[float]]:
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _ in t.spans:
        durations[name].append(end - start)
    return durations


def layer_metrics(t: Tracer, layout: Layout) -> dict[str, float]:
    """Every call site's ``.calls`` and ``.total_s``, per-target latency
    quantiles, the counts recorded at layer boundaries, and the CLI glue
    time (``cli.*`` spans minus their children)."""
    durations = call_sites(t)
    m: dict[str, float] = {}
    for name, values in durations.items():
        m[f"{name}.calls"] = len(values)
        m[f"{name}.total_s"] = math.fsum(values)

    pct = tail_percentile(len(durations["kge.rank_sememes"]))
    m["trace.tail_pct"] = pct
    for name in PER_TARGET:
        values = sorted(durations[name])
        m[f"{name}.median_s"] = statistics.median(values)
        m[f"{name}.tail_s"] = values[max(0, math.ceil(pct / 100 * len(values)) - 1)]

    child_s: dict[int, float] = defaultdict(float)
    for name, start, end, parent in t.spans:
        if parent >= 0:
            child_s[parent] += end - start
    m["cli.self_s"] = math.fsum(
        end - start - child_s[i]
        for i, (name, start, end, _) in enumerate(t.spans)
        if name.startswith("cli.")
    )

    lines = sum(len(_nonblank_lines(p)) for p in t.loaded)
    m["graph.load_triplets.lines_per_s"] = lines / m["graph.load_triplets.total_s"]
    train_triplets = sum(
        1 for line in _nonblank_lines(layout.dataset) if line.rstrip(b"\n").endswith(b"\ttrain")
    )
    epochs = t.counts["kge.train.epochs"]
    m["kge.train.epoch_s"] = m["kge.train.total_s"] / epochs
    m["kge.train.triplets_per_s"] = train_triplets * epochs / m["kge.train.total_s"]
    m["kge.train.loss_last"] = t.values["kge.train.loss_last"]
    m["embeddings.EmbeddingTable.bytes"] = (layout["train"] / "embeddings.tsv").stat().st_size
    m["recommender.SemanticVectorStore.bytes"] = (layout["synth"] / "vectors.tsv").stat().st_size
    m["fusion.save_predictions.bytes"] = layout.predictions.stat().st_size
    m["recommender.neighbors_scanned"] = t.counts["recommender.neighbors_scanned"]
    m["recommender.coverage"] = t.counts["recommender.covered"] / m["kge.rank_sememes.calls"]
    m["fusion.load_predictions.rows"] = t.counts["fusion.load_predictions.rows"]
    return m
