"""Benchmark of the semepred chain: synth -> prepare -> train -> predict -> eval -> analyze.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stock-dim --seed 1 --seconds 52 --trace 0

``--trace 0`` runs the chain through ``semepred.cli.main`` and reports the
end-to-end metrics; ``--trace 1`` runs it both that way and with a span
around every public call the commands make, and reports the per-layer
metrics.  Output checks run either way.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with run metadata and (traced) every span, is written under
``.perfbench_work/results/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from chain import PIPELINE, SETUP, STAGES, Layout, run_stages, stage_settings
from workloads import WORKLOADS, generator_seeds

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Fewest units of each kind in an untraced run, whatever ``--seconds``.
REPEATS = 3
# The kinds of unit an untraced run is made of, and their stages.  The
# pipeline (train -> analyze) is split after ``train`` so that its short
# stages can be repeated more often than the long one.
UNITS = {"setup": SETUP, "train": ("train",), "predict": ("predict", "eval", "analyze")}
# Share of the run each kind aims at.  Set-up has the fewest units it
# needs; ``predict`` holds two of the metrics and the shortest stages.
SHARES = {"setup": 0.2, "train": 0.15, "predict": 0.65}

# (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_triplets_per_s", "1/s"),
    ("predict_targets_per_s", "1/s"),
    ("report_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_map", "%"),
    ("test_f1", "%"),
    ("ok_frac", "ratio"),
)


def import_package() -> None:
    """Import ``semepred`` from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "semepred" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semepred package under {src}")
    sys.path.insert(0, str(src))
    module = importlib.import_module("semepred.cli")
    if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: semepred was imported from {module.__file__}, not {src}")


def import_seconds() -> float:
    """Wall of ``import semepred.cli`` in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "t = time.perf_counter(); import semepred.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def more(walls: list[float], start: float, seconds: float, least: int = REPEATS) -> bool:
    """Whether to run another repetition: always until ``least``, then
    only while one more of median length still ends within ``seconds``."""
    if len(walls) < least:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:  # OpenBLAS as bundled with numpy wheels; the thread count is read, never set
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libs.glob("*openblas*"):
            threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError):
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "config": info.get("openblas configuration"),
        "threads": threads,
        "thread_env": env,
    }


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        ).stdout

    try:
        return {
            "sha": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def run_metadata(workload: str, seed: int, generator_seeds: list[int], trace: int) -> dict:
    import numpy as np

    src_lines = sum(
        1
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "workload": workload,
        "seed": seed,
        "generator_seeds": generator_seeds,
        "trace": trace,
        **{f"git_{k}": v for k, v in _git().items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "src_nonblank_lines": src_lines,
    }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stage_ops(ledger, runs: dict, commands: tuple[str, ...]) -> bool:
    """One operation per stage of ``commands``; a stage never reached
    after a failure counts as failed too."""
    ok = True
    for command in commands:
        run = runs.get(command)
        ok = ledger.check(run is not None and run.code == 0, f"stage {command} exited {run and run.code}") and ok
    return ok


def output_checks(workload, layout, seed: int, ledger) -> tuple[float, float] | None:
    """Dump coverage, report recomputation and oracle agreement on the
    CLI chain's artifacts; returns the report's held-out (MAP, F1), or
    None when an artifact cannot be read."""
    from checks import check_dump, check_rankings, check_report, read_dataset
    from semepred.config import resolve

    try:
        gold = read_dataset(layout.dataset)[0]["test"]
        check_dump(ledger, layout.predictions, set(gold))
        predict = stage_settings(workload, layout)["predict"]
        check_rankings(ledger, layout, resolve(None, predict, os.environ, {"seed": str(seed)}))
        return check_report(ledger, layout, gold)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        ledger.check(False, f"unreadable artifact: {exc!r}")
        return None


def measure_end_to_end(workload, wdir: Path, seeds: list[int], seconds: float, ledger) -> tuple[dict, dict]:
    """Run the three kinds of unit in ``UNITS`` on the datasets made from
    ``seeds`` for ``seconds``; report medians over the units of each kind,
    and MAP and F1 as means over datasets.

    Every dataset first goes through set-up, train and predict once, in
    the order a user runs them.  After that, the next unit is of the kind
    whose time so far is smallest against its ``SHARES`` entry (raised
    to what ``REPEATS`` units need while a kind has fewer), on the next
    dataset of that kind.  So short stages get as many samples as the run
    allows, and every kind is spread over the whole run, where a slow
    stretch of the machine weighs on all alike.  A unit starts only if,
    at the median length of its kind, it ends within ``seconds``, once
    its kind ran ``REPEATS`` times.  Every unit writes the same outputs
    as the first one on its dataset, so the order between kinds does not
    change what a unit reads."""
    from checks import read_dataset

    layouts = [Layout(wdir / f"cli{i}") for i in range(len(seeds))]
    units: dict[str, list[dict]] = {kind: [] for kind in UNITS}
    raw = {"units": units}
    digests: list[list[str]] = [[] for _ in seeds]

    def run(kind: str, i: int) -> bool:
        begin = time.perf_counter()
        unit: dict = {"dataset": i}
        if kind == "setup":
            unit["import_s"] = import_seconds()
        runs = run_stages(UNITS[kind], workload, layouts[i], seeds[i])
        unit.update((c, vars(r)) for c, r in runs.items())
        unit["wall_s"] = time.perf_counter() - begin
        units[kind].append(unit)
        ok = _stage_ops(ledger, runs, UNITS[kind])
        if ok and kind == "predict":
            digests[i].append(_digest(layouts[i].predictions))
        return ok

    def walls(kind: str) -> list[float]:
        return [u["wall_s"] for u in units[kind]]

    def fits(kind: str) -> bool:
        return len(units[kind]) < REPEATS or time.perf_counter() - start + statistics.median(walls(kind)) <= seconds

    def behind(kind: str) -> float:
        share = SHARES[kind]
        if len(units[kind]) < REPEATS:
            share = max(share, REPEATS * statistics.median(walls(kind)) / seconds)
        return sum(walls(kind)) / share

    start = time.perf_counter()
    for i in range(len(seeds)):
        if not all(run(kind, i) for kind in UNITS):
            return {}, raw
    while kind := next((k for k in sorted(UNITS, key=behind) if fits(k)), None):
        if not run(kind, len(units[kind]) % len(seeds)):
            return {}, raw
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each dataset's last dump is checked in full, every earlier one by its digest.
    reports, sizes = [], []
    for i, layout in enumerate(layouts):
        for j, digest in enumerate(digests[i][:-1]):
            ledger.check(digest == digests[i][-1], f"dataset {i}: dump of repetition {j + 1} differs from the last")
        report = output_checks(workload, layout, seeds[i], ledger)
        if report is None:
            return {}, raw
        reports.append(report)
        gold, _, n_train = read_dataset(layout.dataset)
        sizes.append((n_train, len(gold["test"])))

    def median(kind: str, f) -> float:
        return statistics.median(f(unit) for unit in units[kind])

    def wall(unit: dict, stages: tuple[str, ...]) -> float:
        return sum(unit[c]["wall_s"] for c in stages)

    def cpu(unit: dict) -> float:
        return sum(unit[c]["cpu_s"] for c in PIPELINE if c in unit)

    metrics = {
        "setup_s": median("setup", lambda u: u["import_s"] + wall(u, SETUP)),
        "pipeline_s": sum(median(kind, lambda u: wall(u, UNITS[kind])) for kind in ("train", "predict")),
        "train_triplets_per_s": median("train", lambda u: sizes[u["dataset"]][0] * workload.epochs / u["train"]["wall_s"]),
        "predict_targets_per_s": median("predict", lambda u: sizes[u["dataset"]][1] / u["predict"]["wall_s"]),
        "report_s": median("predict", lambda u: wall(u, ("eval", "analyze"))),
        "cpu_s": sum(median(kind, cpu) for kind in ("train", "predict")),
        "peak_rss_mb": peak_rss_mb,
        "test_map": 100.0 * statistics.fmean(m for m, _ in reports),
        "test_f1": 100.0 * statistics.fmean(f for _, f in reports),
        "ok_frac": 1.0 - len(ledger.failures) / ledger.attempted,
    }
    return metrics, raw


def measure_layers(workload, wdir: Path, seed: int, seconds: float, ledger) -> tuple[dict, dict]:
    from checks import check_same_artifacts
    from traced import PER_LAYER, call_sites, layer_metrics, run_traced

    cli, traced = Layout(wdir / "cli"), Layout(wdir / "traced")
    pairs: list[dict] = []
    raw: dict = {"chains": []}
    pair_walls: list[float] = []
    start = time.perf_counter()
    while more(pair_walls, start, seconds, least=1):
        # Alternate which side runs first, so warm caches favour neither.
        walls = {}
        for side in ("cli", "traced") if len(pairs) % 2 == 0 else ("traced", "cli"):
            begin = time.perf_counter()
            if side == "cli":
                runs = run_stages(STAGES, workload, cli, seed)
            else:
                tracer, runs = run_traced(workload, traced, seed)
            walls[side] = time.perf_counter() - begin
            if not _stage_ops(ledger, runs, STAGES):
                return {}, raw
        check_same_artifacts(ledger, cli, traced)
        layers = layer_metrics(tracer, traced)
        layers["trace.overhead_s"] = walls["traced"] - walls["cli"]
        pairs.append(layers)
        pair_walls.append(walls["cli"] + walls["traced"])
        t0 = tracer.spans[0][1]
        raw["chains"].append(
            {
                "chain": len(pairs),
                "wall_s": walls,
                "call_sites": {n: [len(v), sum(v)] for n, v in sorted(call_sites(tracer).items())},
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
            }
        )
    output_checks(workload, cli, seed, ledger)
    return {name: statistics.median(p[name] for p in pairs) for name, _, _ in PER_LAYER}, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    # checks and traced import semepred, so they load only after it is on the path.
    from checks import Ledger
    from traced import PER_LAYER

    workload = WORKLOADS[args.workload]
    wdir = WORK / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    # A traced run measures layers on the first dataset only.
    seeds = generator_seeds(workload, args.seed, 1 if args.trace else workload.datasets)
    meta = run_metadata(workload.name, args.seed, seeds, args.trace)
    ledger = Ledger()

    if args.trace:
        values, raw = measure_layers(workload, wdir, seeds[0], args.seconds, ledger)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, raw = measure_end_to_end(workload, wdir, seeds, args.seconds, ledger)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "result": result, "failures": ledger.failures, "raw": raw}
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
