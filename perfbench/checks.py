"""Output checks, run outside the timed region.

Artifacts are parsed here with code of the benchmark's own, not the
package's loaders, and model rankings are compared with the naive
oracles in ``semepred.synthetic``.  Every check is one operation in the
run's ``attempted``/``failed`` count.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from semepred.config import Settings, fusion_config, sr_config
from semepred.embeddings import EmbeddingTable
from semepred.errors import CoverageError
from semepred.graph import NodeId, Split, load_triplets
from semepred.kge import rank_sememes
from semepred.ranking import ScoredRanking
from semepred.recommender import SemanticVectorStore, recommend
from semepred.synthetic import similarity_score_oracle, translation_distance_oracle

from chain import STAGES, Layout

ORACLE_SAMPLE = 6
TOLERANCE = 1e-9


@dataclass
class Ledger:
    """Operations attempted and the ones that failed, with a reason each."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# -- independent parsers ------------------------------------------------


def read_dataset(path: Path) -> tuple[dict[str, dict[str, set[str]]], set[str], int]:
    """(split -> synset -> gold sememes, all sememes, train triplet count)."""
    gold: dict[str, dict[str, set[str]]] = {}
    sememes: set[str] = set()
    n_train = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            head, _, tail, split = line.rstrip("\n").split("\t")
            n_train += split == "train"
            for node in (head, tail):
                if node.startswith("sem:"):
                    sememes.add(node)
            if head.startswith("syn:") and tail.startswith("sem:"):
                gold.setdefault(split, {}).setdefault(head, set()).add(tail)
    return gold, sememes, n_train


def read_vectors(path: Path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {
            name: [float(x) for x in text.split()]
            for name, _, text in (line.rstrip("\n").partition("\t") for line in fh if line.strip())
        }


def read_dump(path: Path) -> dict[str, tuple[list[tuple[str, float]], list[str]]]:
    rows: dict[str, tuple[list[tuple[str, float]], list[str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            target, ranking, selected = line.rstrip("\n").split("\t")
            entries = []
            for item in ranking.split(",") if ranking else ():
                name, _, score = item.rpartition(":")
                entries.append((name, float(score)))
            rows[target] = (entries, [s for s in selected.split(",") if s])
    return rows


# -- checks -------------------------------------------------------------


def check_dump(ledger: Ledger, dump: Path, targets: set[str]) -> None:
    """One operation per test target: present, non-empty, all scores finite."""
    rows = read_dump(dump)
    for target in sorted(targets):
        entries = rows.get(target, ([], []))[0]
        ledger.check(
            bool(entries) and all(math.isfinite(score) for _, score in entries),
            f"{dump}: {target} is missing or has a non-finite score",
        )
    ledger.check(set(rows) <= targets, f"{dump}: rows for synsets outside the test split")


def _average_precision(gold: set[str], ranking: list[str]) -> float:
    ranks = sorted(ranking.index(s) + 1 for s in gold)
    return math.fsum((i + 1) / r for i, r in enumerate(ranks)) / len(ranks)


def _f1(gold: set[str], selected: list[str]) -> float:
    hits = len(gold & set(selected))
    if not hits:
        return 0.0
    precision, recall = hits / len(selected), hits / len(gold)
    return 2 * precision * recall / (precision + recall)


def check_report(ledger: Ledger, layout: Layout, gold: dict[str, set[str]]) -> tuple[float, float]:
    """Recompute macro MAP and F1 from the dump; return the report's (MAP, F1)."""
    rows = read_dump(layout.predictions)
    aps, f1s = [], []
    for synset, sememes in sorted(gold.items()):
        entries, selected = rows.get(synset, ([], []))
        ranking = [name for name, _ in entries]
        covered = bool(entries) and sememes <= set(ranking)
        aps.append(_average_precision(sememes, ranking) if covered else 0.0)
        f1s.append(_f1(sememes, selected) if covered else 0.0)
    want = (math.fsum(aps) / len(aps), math.fsum(f1s) / len(f1s))
    with open(layout["eval"] / "report.jsonl", encoding="utf-8") as fh:
        record = next(r for r in map(json.loads, fh) if r["scope"] == "all")
    got = (record["map"], record["f1"])
    ledger.check(
        all(math.isclose(g, w, rel_tol=TOLERANCE, abs_tol=TOLERANCE) for g, w in zip(got, want)),
        f"report MAP/F1 {got} differ from the recomputed {want}",
    )
    return got


def _agrees(model: ScoredRanking, oracle: ScoredRanking) -> bool:
    """Same scores, and the model's order never puts a sememe ahead of one
    the oracle scores higher (float ties may break either way)."""
    want = dict(oracle.entries)
    if set(want) != set(model.sememes()):
        return False
    if not all(math.isclose(score, want[s], rel_tol=TOLERANCE, abs_tol=TOLERANCE) for s, score in model.entries):
        return False
    order = model.sememes()
    return all(want[a] >= want[b] - TOLERANCE for a, b in zip(order, order[1:]))


def check_rankings(ledger: Ledger, layout: Layout, settings: Settings) -> None:
    """For a fixed sample of test targets: translation and similarity
    rankings against the oracles, and the dumped fused ranking and
    selection against a reciprocal-rank fusion recomputed here."""
    gold, sememe_names, _ = read_dataset(layout.dataset)
    store = load_triplets(layout.dataset, layout["prepare"] / "pos.tsv")
    embeddings_path = layout["train"] / "embeddings.tsv"
    vectors_path = layout["synth"] / "vectors.tsv"
    table = EmbeddingTable.load(embeddings_path)
    vectors = SemanticVectorStore.load(vectors_path)
    scfg, fcfg = sr_config(settings), fusion_config(settings)

    embedded = read_vectors(embeddings_path)
    have = next(vec for name, vec in embedded.items() if name.startswith("rel:have:"))
    node_vectors = {NodeId.parse(n): v for n, v in embedded.items() if not n.startswith("rel:")}
    semantic = {NodeId.parse(n): v for n, v in read_vectors(vectors_path).items()}
    annotations = {
        NodeId.parse(b): frozenset(NodeId.parse(s) for s in sememes)
        for b, sememes in gold.get("train", {}).items()
    }
    candidates = [NodeId.parse(s) for s in sorted(sememe_names)]
    dump = read_dump(layout.predictions)

    targets = sorted(gold["test"])
    for i in range(min(ORACLE_SAMPLE, len(targets))):
        name = targets[i * len(targets) // min(ORACLE_SAMPLE, len(targets))]
        target = NodeId.parse(name)
        translation = rank_sememes(table, target, store.sememes)
        ledger.check(
            _agrees(translation, translation_distance_oracle(node_vectors, have, target, candidates)),
            f"translation ranking of {name} disagrees with the oracle",
        )
        try:
            similarity = recommend(vectors, target, store.annotation_map(Split.TRAIN), scfg, store.sememes)
        except CoverageError:
            similarity = None
        else:
            oracle = similarity_score_oracle(
                semantic, target, annotations, scfg.decay, scfg.neighbor_cap, candidates
            )
            ledger.check(_agrees(similarity, oracle), f"similarity ranking of {name} disagrees with the oracle")

        fused = {}
        for rank, s in enumerate(translation.sememes(), start=1):
            fused[s.name] = fcfg.translation_weight / rank
        if similarity is not None:
            for rank, s in enumerate(similarity.sememes(), start=1):
                fused[s.name] += fcfg.similarity_weight / rank
        want = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
        entries, selected = dump.get(name, ([], []))
        ledger.check(
            [n for n, _ in entries] == [n for n, _ in want]
            and all(math.isclose(a, b, rel_tol=1e-12) for (_, a), (_, b) in zip(entries, want))
            and selected == [n for n, score in want if score > fcfg.threshold],
            f"dumped fused ranking or selection of {name} differs from the recomputed fusion",
        )


def check_same_artifacts(ledger: Ledger, expected: Layout, actual: Layout) -> None:
    """Every artifact of ``actual`` byte-identical to ``expected``'s; the
    settings echo may differ only in the chain's root directory."""
    for stage in STAGES:
        names = sorted(p.name for p in expected[stage].iterdir())
        same = names == sorted(p.name for p in actual[stage].iterdir())
        for name in names if same else ():
            want = (expected[stage] / name).read_bytes()
            got = (actual[stage] / name).read_bytes()
            if name == "config.resolved":
                got = got.replace(str(actual.root).encode(), str(expected.root).encode())
            same = same and got == want
        ledger.check(same, f"traced {stage} artifacts differ from the CLI run's")
