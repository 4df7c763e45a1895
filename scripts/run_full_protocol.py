"""Run the full prediction protocol on a dataset.

Takes a raw triplet file, POS tags, and semantic vectors, then chains
prepare -> train -> predict -> eval -> analyze with the stock
hyperparameters (embedding dimension 800, 1000 epochs).  Without
--triplets/--pos/--vectors it first generates a synthetic dataset with
known ground truth (``semepred synth``, sized by the synth.* settings).
At stock scale training takes hours; pass --dimension/--epochs to scale
down, or --set for any other setting.

Usage:
    python3 scripts/run_full_protocol.py \
        --triplets data/triplets.tsv --pos data/pos.tsv \
        --vectors data/vectors.tsv --out runs/full
    python3 scripts/run_full_protocol.py --out runs/synthetic \
        --dimension 64 --epochs 200 --set train.batch_size=256
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from semepred.cli import main as semepred


def run(args: list[str]) -> None:
    code = semepred(args)
    if code != 0:
        print(f"step failed with exit code {code}: semepred {' '.join(args)}", file=sys.stderr)
        raise SystemExit(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triplets", help="raw triplet TSV")
    parser.add_argument("--pos", help="POS tag TSV")
    parser.add_argument("--vectors", help="semantic vector file")
    parser.add_argument("--out", default="runs/full", help="workspace directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dimension", type=int, default=None, help="override train.dimension")
    parser.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="extra setting overrides, passed through to every step",
    )
    args = parser.parse_args(argv)
    data = (args.triplets, args.pos, args.vectors)
    if any(data) and not all(data):
        parser.error("give all of --triplets, --pos and --vectors, or none for a synthetic dataset")

    out = Path(args.out)
    common = ["--seed", str(args.seed)]
    for pair in args.set:
        common += ["--set", pair]
    train_overrides = list(common)
    if args.dimension is not None:
        train_overrides += ["--set", f"train.dimension={args.dimension}"]
    if args.epochs is not None:
        train_overrides += ["--set", f"train.epochs={args.epochs}"]
    synth, prep, trained, pred, evaled, analyzed = (
        out / n for n in ("synth", "prepared", "trained", "predictions", "report", "analysis")
    )

    if all(data):
        triplets, pos, vectors = data
    else:
        run(["synth", *common, "--out", str(synth)])
        triplets, pos, vectors = (str(synth / n) for n in ("triplets.tsv", "pos.tsv", "vectors.tsv"))
    run([
        "prepare", *common, "--triplets", triplets, "--pos", pos, "--out", str(prep),
    ])
    run([
        "train", *train_overrides, "--data", str(prep / "dataset.tsv"), "--out", str(trained),
    ])
    run([
        "predict", *common, "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--embeddings", str(trained / "embeddings.tsv"), "--vectors", vectors,
        "--split", "test", "--out", str(pred),
    ])
    run([
        "eval", *common, "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--predictions", str(pred / "predictions.tsv"),
        "--split", "test", "--out", str(evaled),
    ])
    run([
        "analyze", *common, "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--predictions", str(pred / "predictions.tsv"),
        "--split", "test", "--out", str(analyzed),
    ])

    print()
    print((evaled / "report.txt").read_text(), end="")
    print(f"\nartifacts under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
