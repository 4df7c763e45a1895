"""Layered run configuration for the command-line pipeline.

Settings are flat dotted keys with typed defaults.  Values resolve in
precedence order: built-in defaults, then a ``key = value`` config file,
then ``SEMEPRED_``-prefixed environment variables, then ``--set``
overrides, then dedicated command-line flags.  Unknown keys are rejected
at every layer, and every command echoes the fully resolved settings to
``config.resolved`` so a run can be reproduced from its output directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, TypeVar

from .atomic import atomic_open
from .errors import ConfigError, numbered_lines
from .evaluation import BucketQuantity, BucketSpec
from .fusion import FusionConfig
from .graph import Split
from .kge import TrainConfig
from .recommender import SrConfig
from .synthetic import SynthConfig

ENV_PREFIX = "SEMEPRED_"

# Module settings: key -> (type tag, config class, field).  Each default
# is the class's own; tags stay explicit, so a default's Python type never
# decides how a setting parses.
MODULE_SETTINGS: dict[str, tuple[str, type, str]] = {
    "train.dimension": ("int", TrainConfig, "dimension"),
    "train.margin": ("float", TrainConfig, "margin"),
    "train.ranking_weight": ("float", TrainConfig, "ranking_weight"),
    "train.equivalence_weight": ("float", TrainConfig, "equivalence_weight"),
    "train.learning_rate": ("float", TrainConfig, "learning_rate"),
    "train.epochs": ("int", TrainConfig, "epochs"),
    "train.batch_size": ("int", TrainConfig, "batch_size"),
    "train.negatives": ("int", TrainConfig, "negatives_per_positive"),
    "train.normalize_entities": ("bool", TrainConfig, "normalize_entities"),
    "train.corrupt_heads": ("bool", TrainConfig, "corrupt_heads"),
    "train.type_consistent_negatives": ("bool", TrainConfig, "type_consistent_negatives"),
    "train.max_resample": ("int", TrainConfig, "max_resample"),
    "sr.decay": ("float", SrConfig, "decay"),
    "sr.neighbor_cap": ("int", SrConfig, "neighbor_cap"),
    "fusion.similarity_weight": ("float", FusionConfig, "similarity_weight"),
    "fusion.translation_weight": ("float", FusionConfig, "translation_weight"),
    "fusion.threshold": ("float", FusionConfig, "threshold"),
    "synth.n_synsets": ("int", SynthConfig, "n_synsets"),
    "synth.n_sememes": ("int", SynthConfig, "n_sememes"),
    "synth.min_sememes": ("int", SynthConfig, "min_sememes_per_synset"),
    "synth.max_sememes": ("int", SynthConfig, "max_sememes_per_synset"),
    "synth.antonym_pairs": ("int", SynthConfig, "n_antonym_pairs"),
    "synth.hypernym_edges": ("int", SynthConfig, "n_hypernym_edges"),
    "synth.twin_fraction": ("float", SynthConfig, "twin_fraction"),
    "synth.vector_dim": ("int", SynthConfig, "vector_dim"),
    "synth.noise": ("float", SynthConfig, "noise"),
}

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
    **{key: (tag, getattr(cls, field)) for key, (tag, cls, field) in MODULE_SETTINGS.items()},
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
}

# The settings that take one of a closed set of values, in checking order.
CHOICES: dict[str, tuple[str, ...]] = {
    "predict.model": ("fused", "similarity", "translation"),
    **{key: tuple(s.value for s in Split) for key in ("predict.split", "eval.split", "analyze.split")},
    "eval.f1_mode": ("macro", "micro"),
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
        if tag == "bool":
            if text == "true":
                return True
            if text == "false":
                return False
            raise ValueError(text)
        if tag == "ints":
            return tuple(int(part.strip()) for part in text.split(",") if part.strip())
        if tag == "float":
            floats = (float(text),)
        elif tag == "floats":
            floats = tuple(float(part.strip()) for part in text.split(",") if part.strip())
        else:
            return text
    except ValueError as exc:
        raise ConfigError(f"setting {key} expects a {tag}, got {text!r}") from exc
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"setting {key} must be finite, got {text!r}")
    return floats[0] if tag == "float" else floats


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
    if not path.is_file():
        raise ConfigError(f"config file {path} is not a regular file")
    raw: dict[str, str] = {}
    with numbered_lines(path, ConfigError) as lines:
        for _, line in lines:
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"unknown setting {key!r}")
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
        with atomic_open(out) as fh:
            fh.write(self.render())
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
    for key, allowed in CHOICES.items():
        if settings[key] not in allowed:
            listed = ", ".join(allowed[:-1]) + ("," if len(allowed) > 2 else "")
            raise ConfigError(f"{key} must be {listed} or {allowed[-1]}, got {settings[key]!r}")


# -- adapters into module configs -------------------------------------

_CAST = {"int": int, "float": float, "bool": bool}
C = TypeVar("C")


def _module_config(cls: type[C], settings: Settings, **overrides: object) -> C:
    """``cls`` from its MODULE_SETTINGS rows, the global seed if it takes one, then ``overrides``."""
    fields = {f: _CAST[tag](settings[k]) for k, (tag, owner, f) in MODULE_SETTINGS.items() if owner is cls}
    if hasattr(cls, "seed"):
        fields["seed"] = int(settings["seed"])
    return cls(**{**fields, **overrides})


def train_config(settings: Settings) -> TrainConfig:
    return _module_config(TrainConfig, settings)


def sr_config(settings: Settings) -> SrConfig:
    cap = int(settings["sr.neighbor_cap"])
    if cap < 0:
        raise ConfigError(f"sr.neighbor_cap must be >= 0 (0 = no cap), got {cap}")
    return _module_config(SrConfig, settings, neighbor_cap=cap or None)


def fusion_config(settings: Settings) -> FusionConfig:
    return _module_config(FusionConfig, settings)


def synth_config(settings: Settings) -> SynthConfig:
    return _module_config(SynthConfig, settings)


def bucket_specs(settings: Settings) -> dict[BucketQuantity, BucketSpec]:
    return {q: BucketSpec(q, tuple(settings[f"analyze.{q.value}_buckets"])) for q in BucketQuantity}
