"""Workload definitions: dataset shape, split and training settings.

Each workload is a list of ``--set key=value`` settings per CLI stage;
the seed reaches every stage through ``--seed``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]
    ratios: str
    train: tuple[str, ...]
    # Accepted range of generated triplets.  The antonym-twin rule
    # makes the synset-synset edge count swing between seeds (9k to 37k
    # triplets for the singleton-gold shape, 7k to 33k for predict-heavy);
    # drawing the generator seed from the benchmark seed until the size
    # lands in the range keeps every run at one size, as the roadmap asks.
    size_range: tuple[int, int]
    # Datasets an untraced run cycles through.  Held-out MAP and F1 are
    # their mean, so a workload with few test targets per dataset still
    # reads steadily from one seed to the next.
    datasets: int

    @property
    def epochs(self) -> int:
        return int(dict(s.split("=", 1) for s in self.train)["train.epochs"])


# The C5 acceptance shape: singleton gold sets and a high twin fraction.
_C5_GRAPH = (
    "synth.n_synsets=300",
    "synth.n_sememes=40",
    "synth.min_sememes=1",
    "synth.max_sememes=1",
    "synth.twin_fraction=0.9",
)
_C5_SIZE = (11_500, 17_500)
# 30 test targets per dataset: one dataset's MAP moves 10-20% between seeds.
_C5_DATASETS = 6

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sampler-bound",
            why="C5 graph (~14.7k train triplets) at D=64, batch 256: training time is "
            "per-triplet Python in the negative sampler and id lookups",
            synth=_C5_GRAPH,
            ratios="0.8,0.1,0.1",
            train=("train.dimension=64", "train.batch_size=256", "train.epochs=8"),
            size_range=_C5_SIZE,
            datasets=_C5_DATASETS,
        ),
        Workload(
            name="stock-dim",
            why="same graph at the stock D=800, batch 1024: numpy gradients, the "
            "np.add.at scatter, renormalisation and a 5.9 MB embedding file dominate",
            synth=_C5_GRAPH,
            ratios="0.8,0.1,0.1",
            train=("train.dimension=800", "train.batch_size=1024", "train.epochs=2"),
            size_range=_C5_SIZE,
            datasets=_C5_DATASETS,
        ),
        Workload(
            name="predict-heavy",
            why="1000 synsets, 200 sememes, 300-dim vectors, 500 test targets: neighbour "
            "search, voting, fusion, the prediction dump and the O(n^2) generator",
            synth=("synth.n_synsets=1000", "synth.n_sememes=200", "synth.vector_dim=300"),
            ratios="0.5,0,0.5",
            train=("train.dimension=64", "train.epochs=6"),
            size_range=(7_500, 11_700),
            datasets=1,
        ),
    )
}


def generator_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """The seeds the CLI stages get, one per dataset: the first ``count``
    of ``seed`` and a stream of seeds drawn from it whose generated
    dataset has an accepted number of triplets."""
    from semepred.config import resolve, synth_config
    from semepred.synthetic import generate

    low, high = workload.size_range
    draws = random.Random(seed)
    candidate, found = seed, []
    for _ in range(500 * count):
        settings = resolve(None, list(workload.synth), os.environ, {"seed": str(candidate)})
        store, _, _ = generate(synth_config(settings))
        if low <= len(store) <= high:
            found.append(candidate)
            if len(found) == count:
                return found
        candidate = draws.randrange(2**31)
    raise RuntimeError(f"no {count} datasets of {low}-{high} triplets in {500 * count} draws from seed {seed}")
