"""Layered run configuration for the command-line pipeline.

Settings are flat dotted keys with typed defaults.  Values resolve in
precedence order: built-in defaults, then a ``key = value`` config file,
then ``SEMEPRED_``-prefixed environment variables, then ``--set``
overrides, then dedicated command-line flags.  Unknown keys are rejected
at every layer, and every command echoes the fully resolved settings to
``config.resolved`` so a run can be reproduced from its output directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .evaluation import BucketQuantity, BucketSpec
from .fusion import FusionConfig
from .kge import TrainConfig
from .recommender import SrConfig
from .synthetic import SynthConfig

ENV_PREFIX = "SEMEPRED_"

# key -> (type tag, default); type tags: int, float, bool, str, ints, floats
SCHEMA: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    "out": ("str", "out"),
    "prepare.triplets": ("str", ""),
    "prepare.pos": ("str", ""),
    "prepare.min_node_degree": ("int", 1),
    "prepare.min_relation_count": ("int", 1),
    "prepare.ratios": ("floats", (0.8, 0.1, 0.1)),
    "prepare.keep_pos": ("str", ""),
    "data.triplets": ("str", ""),
    "data.pos": ("str", ""),
    "data.vectors": ("str", ""),
    "data.embeddings": ("str", ""),
    "data.predictions": ("str", ""),
    "train.dimension": ("int", 800),
    "train.margin": ("float", 4.0),
    "train.ranking_weight": ("float", 0.95),
    "train.equivalence_weight": ("float", 0.05),
    "train.learning_rate": ("float", 0.01),
    "train.epochs": ("int", 1000),
    "train.batch_size": ("int", 1024),
    "train.negatives": ("int", 1),
    "train.normalize_entities": ("bool", True),
    "train.corrupt_heads": ("bool", False),
    "train.type_consistent_negatives": ("bool", False),
    "train.max_resample": ("int", 100),
    "sr.decay": ("float", 0.8),
    "sr.neighbor_cap": ("int", 100),
    "fusion.similarity_weight": ("float", 0.45),
    "fusion.translation_weight": ("float", 0.55),
    "fusion.threshold": ("float", 0.32),
    "fusion.raw_scores": ("bool", False),
    "predict.model": ("str", "fused"),
    "predict.split": ("str", "test"),
    "eval.split": ("str", "test"),
    "eval.f1_mode": ("str", "macro"),
    "analyze.split": ("str", "test"),
    "analyze.synset_degree_buckets": ("ints", (0, 5, 10, 15, 20, 25)),
    "analyze.sememe_count_buckets": ("ints", (0, 2, 3, 4, 5, 6)),
    "analyze.sememe_degree_buckets": ("ints", (0, 26, 51, 76, 101, 151, 201)),
    "analyze.top_k": ("int", 10),
    "synth.n_synsets": ("int", 300),
    "synth.n_sememes": ("int", 40),
    "synth.min_sememes": ("int", 1),
    "synth.max_sememes": ("int", 4),
    "synth.antonym_pairs": ("int", 5),
    "synth.hypernym_edges": ("int", 10),
    "synth.twin_fraction": ("float", 0.5),
    "synth.vector_dim": ("int", 40),
    "synth.noise": ("float", 0.05),
}


def env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "__")


_ENV_TO_KEY = {env_name(key): key for key in SCHEMA}


def parse_value(key: str, text: str) -> object:
    if key not in SCHEMA:
        raise ConfigError(f"unknown setting {key!r}")
    tag, _ = SCHEMA[key]
    text = text.strip()
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            if text == "true":
                return True
            if text == "false":
                return False
            raise ValueError(text)
        if tag == "ints":
            return tuple(int(part.strip()) for part in text.split(",") if part.strip())
        if tag == "floats":
            return tuple(float(part.strip()) for part in text.split(",") if part.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"setting {key} expects a {tag}, got {text!r}") from exc


def format_value(key: str, value: object) -> str:
    tag, _ = SCHEMA[key]
    if tag == "bool":
        return "true" if value else "false"
    if tag in ("ints", "floats"):
        return ",".join(repr(part) if tag == "floats" else str(part) for part in value)
    if tag == "float":
        return repr(value)
    return str(value)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; later duplicates win, comments start with #."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            raw[key] = value.strip()
    return raw


def env_overrides(environ: Mapping[str, str]) -> dict[str, str]:
    """Collect SEMEPRED_* variables; unrecognized ones are errors so typos
    never silently change a run."""
    raw: dict[str, str] = {}
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        key = _ENV_TO_KEY.get(name)
        if key is None:
            raise ConfigError(f"unrecognized environment variable {name}")
        raw[key] = environ[name]
    return raw


@dataclass(frozen=True)
class Settings:
    values: dict[str, object]

    def __getitem__(self, key: str) -> object:
        try:
            return self.values[key]
        except KeyError as exc:
            raise ConfigError(f"unknown setting {key!r}") from exc

    def render(self) -> str:
        """Canonical echo of every setting; reparsing it reproduces the run."""
        lines = [f"{key} = {format_value(key, self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def write_echo(self, out_dir: str | Path) -> Path:
        out = Path(out_dir) / "config.resolved"
        out.write_text(self.render(), encoding="utf-8")
        return out


def resolve(
    config_path: str | Path | None = None,
    sets: list[str] | None = None,
    environ: Mapping[str, str] | None = None,
    flag_overrides: Mapping[str, str] | None = None,
) -> Settings:
    """Layer defaults, config file, environment, --set pairs, and flags."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if config_path is not None:
        for key, text in load_config_file(config_path).items():
            values[key] = parse_value(key, text)
    if environ is not None:
        for key, text in env_overrides(environ).items():
            values[key] = parse_value(key, text)
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        values[key.strip()] = parse_value(key.strip(), text)
    for key, text in (flag_overrides or {}).items():
        values[key] = parse_value(key, text)
    settings = Settings(values)
    _validate(settings)
    return settings


def _validate(settings: Settings) -> None:
    model = settings["predict.model"]
    if model not in ("fused", "similarity", "translation"):
        raise ConfigError(f"predict.model must be fused, similarity, or translation, got {model!r}")
    for key in ("predict.split", "eval.split", "analyze.split"):
        if settings[key] not in ("train", "valid", "test"):
            raise ConfigError(f"{key} must be train, valid, or test, got {settings[key]!r}")
    if settings["eval.f1_mode"] not in ("macro", "micro"):
        raise ConfigError(f"eval.f1_mode must be macro or micro, got {settings['eval.f1_mode']!r}")


# -- adapters into module configs -------------------------------------


def train_config(settings: Settings) -> TrainConfig:
    return TrainConfig(
        dimension=int(settings["train.dimension"]),
        margin=float(settings["train.margin"]),
        ranking_weight=float(settings["train.ranking_weight"]),
        equivalence_weight=float(settings["train.equivalence_weight"]),
        learning_rate=float(settings["train.learning_rate"]),
        epochs=int(settings["train.epochs"]),
        batch_size=int(settings["train.batch_size"]),
        negatives_per_positive=int(settings["train.negatives"]),
        seed=int(settings["seed"]),
        normalize_entities=bool(settings["train.normalize_entities"]),
        corrupt_heads=bool(settings["train.corrupt_heads"]),
        type_consistent_negatives=bool(settings["train.type_consistent_negatives"]),
        max_resample=int(settings["train.max_resample"]),
    )


def sr_config(settings: Settings) -> SrConfig:
    cap = int(settings["sr.neighbor_cap"])
    return SrConfig(
        decay=float(settings["sr.decay"]),
        neighbor_cap=None if cap == 0 else cap,
    )


def fusion_config(settings: Settings) -> FusionConfig:
    return FusionConfig(
        similarity_weight=float(settings["fusion.similarity_weight"]),
        translation_weight=float(settings["fusion.translation_weight"]),
        threshold=float(settings["fusion.threshold"]),
    )


def synth_config(settings: Settings) -> SynthConfig:
    return SynthConfig(
        n_synsets=int(settings["synth.n_synsets"]),
        n_sememes=int(settings["synth.n_sememes"]),
        min_sememes_per_synset=int(settings["synth.min_sememes"]),
        max_sememes_per_synset=int(settings["synth.max_sememes"]),
        n_antonym_pairs=int(settings["synth.antonym_pairs"]),
        n_hypernym_edges=int(settings["synth.hypernym_edges"]),
        twin_fraction=float(settings["synth.twin_fraction"]),
        vector_dim=int(settings["synth.vector_dim"]),
        noise=float(settings["synth.noise"]),
        seed=int(settings["seed"]),
    )


def bucket_specs(settings: Settings) -> dict[BucketQuantity, BucketSpec]:
    return {
        BucketQuantity.SYNSET_DEGREE: BucketSpec(
            BucketQuantity.SYNSET_DEGREE, tuple(settings["analyze.synset_degree_buckets"])
        ),
        BucketQuantity.SEMEME_COUNT: BucketSpec(
            BucketQuantity.SEMEME_COUNT, tuple(settings["analyze.sememe_count_buckets"])
        ),
        BucketQuantity.SEMEME_DEGREE: BucketSpec(
            BucketQuantity.SEMEME_DEGREE, tuple(settings["analyze.sememe_degree_buckets"])
        ),
    }
