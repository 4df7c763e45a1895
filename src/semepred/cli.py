"""Command-line pipeline: prepare, train, predict, eval, analyze, synth.

Every command resolves one layered settings object, writes its artifacts
into the ``out`` directory, and echoes the fully resolved settings next
to them, so any run can be reproduced from its output directory alone.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

from .config import (
    Settings,
    bucket_specs,
    fusion_config,
    resolve,
    sr_config,
    synth_config,
    train_config,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, ContractError, CoverageError, SemepredError, ValidationError
from .evaluation import (
    BucketQuantity,
    bucket_analysis,
    evaluate,
    format_report_table,
    save_bucket_csv,
    save_difficulty_table,
    save_report_jsonl,
    sememe_difficulty,
)
from .fusion import (
    PredictionResult,
    Provenance,
    fuse,
    load_predictions,
    reciprocal_scores,
    save_predictions,
    threshold_select,
)
from .graph import (
    Pos,
    Split,
    TripletStore,
    format_stats,
    load_triplets,
    save_pos_tags,
    save_triplets,
)
from .kge import rank_sememes, save_loss_trace, train
from .recommender import SemanticVectorStore, recommend
from .synthetic import generate

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 1 instead of argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _existing_path(settings: Settings, key: str) -> Path:
    text = str(settings[key])
    if not text:
        raise ConfigError(f"{key} must be set for this command")
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"{key} points to a missing file: {path}")
    return path


def _out_dir(settings: Settings) -> Path:
    out = Path(str(settings["out"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(settings: Settings) -> TripletStore:
    triplets = _existing_path(settings, "data.triplets")
    pos = _existing_path(settings, "data.pos") if str(settings["data.pos"]) else None
    return load_triplets(triplets, pos)


def cmd_prepare(settings: Settings) -> None:
    triplets = _existing_path(settings, "prepare.triplets")
    pos = _existing_path(settings, "prepare.pos") if str(settings["prepare.pos"]) else None
    store = load_triplets(triplets, pos)
    store = store.filter_low_frequency(
        int(settings["prepare.min_node_degree"]), int(settings["prepare.min_relation_count"])
    )
    ratios = tuple(settings["prepare.ratios"])
    if len(ratios) != 3:
        raise ConfigError(f"prepare.ratios needs exactly 3 values, got {ratios}")
    store = store.split_dataset(ratios, int(settings["seed"]))
    keep_text = str(settings["prepare.keep_pos"])
    if keep_text:
        try:
            keep = [Pos(part.strip()) for part in keep_text.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"prepare.keep_pos has an unknown POS tag: {keep_text!r}") from exc
        store = store.filter_by_pos(keep)
    out = _out_dir(settings)
    save_triplets(store, out / "dataset.tsv", include_split=True)
    save_pos_tags(store.pos_tags(), out / "pos.tsv")
    (out / "summary.txt").write_text(format_stats(store.stats()), encoding="utf-8")
    settings.write_echo(out)


def cmd_train(settings: Settings) -> None:
    store = _load_dataset(settings)
    result = train(store, train_config(settings))
    out = _out_dir(settings)
    result.table.save(out / "embeddings.tsv")
    save_loss_trace(result.trace, out / "loss_trace.csv")
    settings.write_echo(out)


def cmd_predict(settings: Settings) -> None:
    store = _load_dataset(settings)
    split = Split(str(settings["predict.split"]))
    model = str(settings["predict.model"])
    raw_scores = bool(settings["fusion.raw_scores"])
    fcfg = fusion_config(settings)
    scfg = sr_config(settings)

    table = (
        EmbeddingTable.load(_existing_path(settings, "data.embeddings"))
        if str(settings["data.embeddings"])
        else None
    )
    vectors = (
        SemanticVectorStore.load(
            _existing_path(settings, "data.vectors"), known_synsets=store.synsets
        )
        if str(settings["data.vectors"])
        else None
    )
    if model == "translation" and table is None:
        raise ContractError("predict.model=translation needs data.embeddings")
    if model == "similarity" and vectors is None:
        raise ContractError("predict.model=similarity needs data.vectors")
    if model == "fused" and table is None and vectors is None:
        raise ContractError("no model inputs: set data.embeddings and/or data.vectors")

    targets = sorted(store.annotation_map(split), key=lambda n: n.name)
    candidates = store.sememes
    train_annotations = store.annotation_map(Split.TRAIN)

    results: list[PredictionResult] = []
    provenance_counts: Counter[str] = Counter()
    sr_uncovered = 0
    for target in targets:
        if model == "translation":
            ranking = rank_sememes(table, target, candidates)
            if not raw_scores:
                ranking = reciprocal_scores(ranking)
            result = threshold_select(ranking, fcfg.threshold, Provenance.TRANSLATION)
        elif model == "similarity":
            try:
                ranking = recommend(vectors, target, train_annotations, scfg, candidates)
            except CoverageError as exc:
                logger.warning("skipping %s: %s", target, exc)
                sr_uncovered += 1
                continue
            if not raw_scores:
                ranking = reciprocal_scores(ranking)
            result = threshold_select(ranking, fcfg.threshold, Provenance.SIMILARITY)
        else:
            similarity = None
            if vectors is not None:
                try:
                    similarity = recommend(vectors, target, train_annotations, scfg, candidates)
                except CoverageError:
                    sr_uncovered += 1
            if table is not None:
                fused = fuse(similarity, rank_sememes(table, target, candidates), fcfg)
                provenance = Provenance.FUSED if similarity is not None else Provenance.TRANSLATION
            else:
                if similarity is None:
                    logger.warning("skipping %s: no similarity coverage and no embeddings", target)
                    continue
                fused = reciprocal_scores(similarity, fcfg.similarity_weight)
                provenance = Provenance.SIMILARITY
            result = threshold_select(fused, fcfg.threshold, provenance)
        provenance_counts[result.provenance.value] += 1
        results.append(result)

    out = _out_dir(settings)
    save_predictions(results, out / "predictions.tsv")
    summary_lines = [
        f"targets\t{len(targets)}",
        f"predicted\t{len(results)}",
        f"sr_uncovered\t{sr_uncovered}",
    ]
    for provenance in Provenance:
        summary_lines.append(
            f"provenance[{provenance.value}]\t{provenance_counts.get(provenance.value, 0)}"
        )
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    settings.write_echo(out)


def _load_results(settings: Settings) -> dict:
    predictions = load_predictions(_existing_path(settings, "data.predictions"))
    results: dict = {}
    for result in predictions:
        if result.target in results:
            raise ValidationError(f"duplicate prediction for {result.target}")
        results[result.target] = result
    return results


def cmd_eval(settings: Settings) -> None:
    store = _load_dataset(settings)
    split = Split(str(settings["eval.split"]))
    results = _load_results(settings)
    report = evaluate(results, store, split, f1_mode=str(settings["eval.f1_mode"]))
    out = _out_dir(settings)
    save_report_jsonl(report, out / "report.jsonl")
    (out / "report.txt").write_text(format_report_table(report), encoding="utf-8")
    settings.write_echo(out)


def cmd_analyze(settings: Settings) -> None:
    store = _load_dataset(settings)
    split = Split(str(settings["analyze.split"]))
    results = _load_results(settings)
    specs = bucket_specs(settings)
    out = _out_dir(settings)
    for quantity, filename in (
        (BucketQuantity.SYNSET_DEGREE, "synset_degree.csv"),
        (BucketQuantity.SEMEME_COUNT, "sememe_count.csv"),
        (BucketQuantity.SEMEME_DEGREE, "sememe_degree.csv"),
    ):
        rows = bucket_analysis(results, store, split, specs[quantity])
        save_bucket_csv(rows, out / filename)
    easiest, hardest = sememe_difficulty(results, store, split, int(settings["analyze.top_k"]))
    save_difficulty_table(easiest, hardest, out / "difficulty.tsv")
    settings.write_echo(out)


def cmd_synth(settings: Settings) -> None:
    store, vectors, _ = generate(synth_config(settings))
    out = _out_dir(settings)
    save_triplets(store, out / "triplets.tsv")
    save_pos_tags(store.pos_tags(), out / "pos.tsv")
    vectors.save(out / "vectors.tsv")
    settings.write_echo(out)


_COMMANDS: dict[str, Callable[[Settings], None]] = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "synth": cmd_synth,
}

# (flag, config key) pairs per command; flags are the highest-precedence
# way to set the corresponding setting.
_FLAG_KEYS: dict[str, list[tuple[str, str]]] = {
    "prepare": [("triplets", "prepare.triplets"), ("pos", "prepare.pos"), ("out", "out")],
    "train": [("data", "data.triplets"), ("out", "out")],
    "predict": [
        ("data", "data.triplets"),
        ("pos", "data.pos"),
        ("embeddings", "data.embeddings"),
        ("vectors", "data.vectors"),
        ("model", "predict.model"),
        ("split", "predict.split"),
        ("out", "out"),
    ],
    "eval": [
        ("data", "data.triplets"),
        ("pos", "data.pos"),
        ("predictions", "data.predictions"),
        ("split", "eval.split"),
        ("out", "out"),
    ],
    "analyze": [
        ("data", "data.triplets"),
        ("pos", "data.pos"),
        ("predictions", "data.predictions"),
        ("split", "analyze.split"),
        ("out", "out"),
    ],
    "synth": [("out", "out")],
}


def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser shared with every subcommand so
    # they are accepted both before and after the command name; SUPPRESS
    # keeps an absent subcommand flag from overwriting a top-level value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="path to a key = value settings file"
    )
    common.add_argument(
        "--set",
        action="append",
        default=argparse.SUPPRESS,
        metavar="KEY=VALUE",
        help="override one setting; repeatable",
    )
    common.add_argument("--seed", default=argparse.SUPPRESS, help="global random seed")
    parser = _Parser(prog="semepred", description="Sememe prediction pipeline", parents=[common])
    subparsers = parser.add_subparsers(dest="command", required=True)
    helps = {
        "prepare": "filter a raw triplet file and split it into train/valid/test",
        "train": "learn relational embeddings from a prepared dataset",
        "predict": "rank and select sememes for a split's synsets",
        "eval": "score a prediction dump with MAP and F1",
        "analyze": "bucketed breakdowns and a sememe difficulty table",
        "synth": "generate a synthetic dataset with known ground truth",
    }
    for command, pairs in _FLAG_KEYS.items():
        sub = subparsers.add_parser(command, help=helps[command], parents=[common])
        for flag, key in pairs:
            if flag == "model":
                sub.add_argument("--model", choices=("fused", "similarity", "translation"),
                                 help=f"sets {key}")
            elif flag == "split":
                sub.add_argument("--split", choices=("train", "valid", "test"),
                                 help=f"sets {key}")
            else:
                sub.add_argument(f"--{flag}", help=f"sets {key}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_overrides: dict[str, str] = {}
    if getattr(args, "seed", None) is not None:
        flag_overrides["seed"] = args.seed
    for flag, key in _FLAG_KEYS[args.command]:
        value = getattr(args, flag, None)
        if value is not None:
            flag_overrides[key] = value
    try:
        settings = resolve(
            getattr(args, "config", None), getattr(args, "set", []), os.environ, flag_overrides
        )
        _COMMANDS[args.command](settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SemepredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
