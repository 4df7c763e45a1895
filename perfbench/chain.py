"""The synth -> prepare -> train -> predict -> eval -> analyze chain.

``stage_settings`` is the one description of what each stage is asked
to do; the untraced and the traced run both feed it to
``semepred.cli.main``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

SETUP = ("synth", "prepare")
PIPELINE = ("train", "predict", "eval", "analyze")
STAGES = SETUP + PIPELINE


@dataclass(frozen=True)
class Layout:
    """Artifact directories of one chain, one per stage."""

    root: Path

    def __getitem__(self, stage: str) -> Path:
        return self.root / stage

    @property
    def dataset(self) -> Path:
        return self["prepare"] / "dataset.tsv"

    @property
    def predictions(self) -> Path:
        return self["predict"] / "predictions.tsv"


def stage_settings(workload: Workload, layout: Layout) -> dict[str, list[str]]:
    synth, prep = layout["synth"], layout["prepare"]
    dataset = [f"data.triplets={prep / 'dataset.tsv'}", f"data.pos={prep / 'pos.tsv'}"]
    scored = [*dataset, f"data.predictions={layout.predictions}"]
    return {
        "synth": [f"out={synth}", *workload.synth],
        "prepare": [
            f"out={prep}",
            f"prepare.triplets={synth / 'triplets.tsv'}",
            f"prepare.pos={synth / 'pos.tsv'}",
            f"prepare.ratios={workload.ratios}",
        ],
        "train": [f"out={layout['train']}", f"data.triplets={prep / 'dataset.tsv'}", *workload.train],
        "predict": [
            f"out={layout['predict']}",
            *dataset,
            f"data.embeddings={layout['train'] / 'embeddings.tsv'}",
            f"data.vectors={synth / 'vectors.tsv'}",
            "predict.split=test",
        ],
        "eval": [f"out={layout['eval']}", *scored, "eval.split=test"],
        "analyze": [f"out={layout['analyze']}", *scored, "analyze.split=test"],
    }


@dataclass(frozen=True)
class StageRun:
    code: int
    wall_s: float
    cpu_s: float


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_cli(command: str, seed: int, sets: list[str]) -> StageRun:
    """One ``semepred <command>`` call in this process, timed."""
    from semepred.cli import main

    argv = [command, "--seed", str(seed)]
    for item in sets:
        argv += ["--set", item]
    cpu, start = _cpu(), time.perf_counter()
    code = main(argv)
    return StageRun(code, time.perf_counter() - start, _cpu() - cpu)


def run_stages(
    commands: tuple[str, ...], workload: Workload, layout: Layout, seed: int
) -> dict[str, StageRun]:
    """Run ``commands`` in order, stopping after the first non-zero exit."""
    settings = stage_settings(workload, layout)
    runs: dict[str, StageRun] = {}
    for command in commands:
        runs[command] = run_cli(command, seed, settings[command])
        if runs[command].code != 0:
            break
    return runs
