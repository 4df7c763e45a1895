"""Command-line pipeline: prepare, train, predict, eval, analyze, synth.

Every command resolves one layered settings object and writes its artifacts
into the ``out`` directory; ``main`` then echoes the fully resolved settings
next to them, last, so any run can be reproduced from its output directory
alone, and a directory without the echo holds a run that did not finish.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .atomic import atomic_open
from .config import (
    CHOICES,
    Settings,
    bucket_specs,
    fusion_config,
    resolve,
    sr_config,
    synth_config,
    train_config,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, ContractError, CoverageError, SemepredError, UnknownIdError
from .evaluation import (
    bucket_analysis,
    evaluate,
    format_report_table,
    save_bucket_csv,
    save_difficulty_table,
    save_report_jsonl,
    sememe_difficulty,
    synset_outcomes,
)
from .fusion import (
    PredictionResult,
    Provenance,
    fuse,
    load_predictions,
    save_predictions,
    threshold_select,
)
from .graph import (
    Pos,
    Split,
    format_stats,
    load_triplets,
    save_pos_tags,
    save_triplets,
)
from .kge import rank_sememes, save_loss_trace, train
from .ranking import CandidateOrder
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
    if not path.is_file():
        raise ConfigError(f"{key} points to {path}, which is not a regular file")
    return path


def _optional_path(settings: Settings, key: str) -> Path | None:
    return _existing_path(settings, key) if str(settings[key]) else None


def _out_dir(settings: Settings) -> Path:
    """Create ``out`` and remove the last run's ``config.resolved``: the echo marks a
    finished stage, and :func:`main` writes this run's only after the command returns."""
    out = Path(str(settings["out"]))
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.resolved").unlink(missing_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"out points to {out}, which is not a directory") from exc
    except OSError as exc:
        raise ConfigError(f"cannot prepare {out}: {exc.strerror}: {exc.filename}") from exc
    return out


def cmd_prepare(settings: Settings, out: Path) -> None:
    triplets = _existing_path(settings, "prepare.triplets")
    store = load_triplets(triplets, _optional_path(settings, "prepare.pos"))
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
    save_triplets(store, out / "dataset.tsv", include_split=True)
    save_pos_tags(store.pos_tags(), out / "pos.tsv")
    with atomic_open(out / "summary.txt") as fh:
        fh.write(format_stats(store.stats()))


def cmd_train(settings: Settings, out: Path) -> None:
    store = load_triplets(_existing_path(settings, "data.triplets"))
    result = train(store, train_config(settings))
    result.table.save(out / "embeddings.tsv")
    save_loss_trace(result.trace, out / "loss_trace.csv")


# Keyed by (similarity ranking present, translation ranking present).
_PROVENANCE = {
    (True, True): Provenance.FUSED,
    (True, False): Provenance.SIMILARITY,
    (False, True): Provenance.TRANSLATION,
}


def cmd_predict(settings: Settings, out: Path) -> None:
    model = str(settings["predict.model"])
    raw_scores = bool(settings["fusion.raw_scores"])
    if raw_scores and model == "fused":
        raise ConfigError("fusion.raw_scores=true needs predict.model=similarity or translation, not fused")
    store = load_triplets(_existing_path(settings, "data.triplets"))
    split = Split(str(settings["predict.split"]))
    fcfg = fusion_config(settings)
    scfg = sr_config(settings)

    embeddings = _optional_path(settings, "data.embeddings")
    vectors_path = _optional_path(settings, "data.vectors")
    # A single model is the fusion with the other model's weight at 0,
    # computed from its own input alone; the other input is not read.
    if model == "similarity":
        if vectors_path is None:
            raise ContractError("predict.model=similarity needs data.vectors")
        embeddings, fcfg = None, replace(fcfg, similarity_weight=1.0, translation_weight=0.0)
    elif model == "translation":
        if embeddings is None:
            raise ContractError("predict.model=translation needs data.embeddings")
        vectors_path, fcfg = None, replace(fcfg, similarity_weight=0.0, translation_weight=1.0)
    elif embeddings is None and vectors_path is None:
        raise ContractError("no model inputs: set data.embeddings and/or data.vectors")
    table = EmbeddingTable.load(embeddings) if embeddings else None
    vectors = SemanticVectorStore.load(vectors_path, known_synsets=store.synsets) if vectors_path else None

    targets = store.annotation_map(split)
    candidates = CandidateOrder(store.sememes)
    train_annotations = store.annotation_map(Split.TRAIN)

    results: list[PredictionResult] = []
    provenance_counts: Counter[str] = Counter()
    sr_uncovered = 0
    for target in targets:
        similarity = translation = None
        if vectors is not None:
            try:
                similarity = recommend(vectors, target, train_annotations, scfg, candidates)
            except CoverageError:
                sr_uncovered += 1
        if table is not None:
            try:
                translation = rank_sememes(table, target, candidates)
            except UnknownIdError as exc:
                dataset = settings["data.triplets"]
                raise UnknownIdError(f"{exc}\n  {embeddings} has no row for it, but {dataset} names it") from exc
        if similarity is None and translation is None:
            logger.warning("skipping %s: no similarity coverage and no translation model", target)
            continue
        if raw_scores:
            ranking = translation if similarity is None else similarity
        else:
            ranking = fuse(similarity, translation, fcfg)
        provenance = _PROVENANCE[similarity is not None, translation is not None]
        result = threshold_select(ranking, fcfg.threshold, provenance)
        provenance_counts[result.provenance.value] += 1
        results.append(result)

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
    with atomic_open(out / "summary.txt") as fh:
        fh.write("\n".join(summary_lines) + "\n")


def _load_results(settings: Settings) -> dict:
    predictions = load_predictions(_existing_path(settings, "data.predictions"))
    return {result.target: result for result in predictions}


def cmd_eval(settings: Settings, out: Path) -> None:
    # Only eval reads POS tags after prepare, for its per-POS rows.
    store = load_triplets(_existing_path(settings, "data.triplets"), _optional_path(settings, "data.pos"))
    split = Split(str(settings["eval.split"]))
    results = _load_results(settings)
    report = evaluate(results, store, split, f1_mode=str(settings["eval.f1_mode"]))
    save_report_jsonl(report, out / "report.jsonl")
    with atomic_open(out / "report.txt") as fh:
        fh.write(format_report_table(report))


def cmd_analyze(settings: Settings, out: Path) -> None:
    store = load_triplets(_existing_path(settings, "data.triplets"))
    outcomes = synset_outcomes(_load_results(settings), store, Split(str(settings["analyze.split"])))
    # Every report is built before the first write, so a bad setting leaves no partial artifacts.
    buckets = {q: bucket_analysis(outcomes, store, spec) for q, spec in bucket_specs(settings).items()}
    easiest, hardest = sememe_difficulty(outcomes, int(settings["analyze.top_k"]))
    for quantity, rows in buckets.items():
        save_bucket_csv(rows, out / f"{quantity.value}.csv")
    save_difficulty_table(easiest, hardest, out / "difficulty.tsv")


def cmd_synth(settings: Settings, out: Path) -> None:
    store, vectors, _ = generate(synth_config(settings))
    save_triplets(store, out / "triplets.tsv")
    save_pos_tags(store.pos_tags(), out / "pos.tsv")
    vectors.save(out / "vectors.tsv")


class _Command(NamedTuple):
    """One command: what it runs, its ``--help`` line, and its ``(flag, setting, source)``
    rows.  Flags are the highest-precedence way to set a setting; ``source`` is the
    synth -> analyze chain artifact that feeds an input, as (stage that writes it,
    file name), and None for any other flag."""

    run: Callable[[Settings, Path], None]
    help: str
    flags: tuple[tuple[str, str, tuple[str, str] | None], ...]


_COMMAND_TABLE: dict[str, _Command] = {
    "prepare": _Command(cmd_prepare, "filter a raw triplet file and split it into train/valid/test", (
        ("triplets", "prepare.triplets", ("synth", "triplets.tsv")),
        ("pos", "prepare.pos", ("synth", "pos.tsv")),
        ("out", "out", None),
    )),
    "train": _Command(cmd_train, "learn relational embeddings from a prepared dataset", (
        ("data", "data.triplets", ("prepare", "dataset.tsv")),
        ("out", "out", None),
    )),
    "predict": _Command(cmd_predict, "rank and select sememes for a split's synsets", (
        ("data", "data.triplets", ("prepare", "dataset.tsv")),
        ("embeddings", "data.embeddings", ("train", "embeddings.tsv")),
        ("vectors", "data.vectors", ("synth", "vectors.tsv")),
        ("model", "predict.model", None),
        ("split", "predict.split", None),
        ("out", "out", None),
    )),
    "eval": _Command(cmd_eval, "score a prediction dump with MAP and F1", (
        ("data", "data.triplets", ("prepare", "dataset.tsv")),
        ("pos", "data.pos", ("prepare", "pos.tsv")),
        ("predictions", "data.predictions", ("predict", "predictions.tsv")),
        ("split", "eval.split", None),
        ("out", "out", None),
    )),
    "analyze": _Command(cmd_analyze, "bucketed breakdowns and a sememe difficulty table", (
        ("data", "data.triplets", ("prepare", "dataset.tsv")),
        ("predictions", "data.predictions", ("predict", "predictions.tsv")),
        ("split", "analyze.split", None),
        ("out", "out", None),
    )),
    "synth": _Command(cmd_synth, "generate a synthetic dataset with known ground truth", (("out", "out", None),)),
}


def chain_argv(
    command: str, dirs: Mapping[str, Path], files: Mapping[str, str | Path] | None = None, **flags: str
) -> list[str]:
    """``command``'s chain step as flags from its table row: ``--out`` is ``dirs[command]``,
    an input is ``files[setting]`` if given, else its source file in ``dirs[stage]``, and
    ``flags`` gives other flags, such as ``split="test"``, to the commands that have them."""
    given = {"out": dirs[command], **flags}
    argv = [command]
    for flag, key, source in _COMMAND_TABLE[command].flags:
        value = (files or {}).get(key) or (Path(dirs[source[0]], source[1]) if source else given.get(flag))
        if value is not None:
            argv += [f"--{flag}", str(value)]
    return argv


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
    for name, command in _COMMAND_TABLE.items():
        sub = subparsers.add_parser(name, help=command.help, parents=[common])
        for flag, key, _ in command.flags:
            sub.add_argument(f"--{flag}", choices=CHOICES.get(key), help=f"sets {key}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_overrides: dict[str, str] = {}
    if getattr(args, "seed", None) is not None:
        flag_overrides["seed"] = args.seed
    command = _COMMAND_TABLE[args.command]
    for flag, key, _ in command.flags:
        value = getattr(args, flag, None)
        if value is not None:
            flag_overrides[key] = value
    try:
        settings = resolve(
            getattr(args, "config", None), getattr(args, "set", []), os.environ, flag_overrides
        )
        out = _out_dir(settings)
        command.run(settings, out)
        settings.write_echo(out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SemepredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
