"""Experiment configuration: one strict JSON document.

Unknown keys anywhere in the document are rejected so that a typo in a sweep
never silently falls back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .errors import ConfigError

TASKS = ("cf", "ctr", "list-completion")
FUSION_MODES = ("average", "concat-project")
DATA_FORMATS = ("generic-tsv", "movielens-100k", "lists")


@dataclass
class DataConfig:
    path: str = ""
    format: str = "generic-tsv"
    min_freq: int = 10
    min_len: int = 2
    max_len: int = 200


@dataclass
class CageConfig:
    user_enabled: bool = False
    item_enabled: bool = False
    levels: list = field(default_factory=list)      # [v1, ..., vH], strictly decreasing
    alpha: float = 1.0
    beta: float = 1.0
    omega_q: float = 1.0
    omega_c: float = 1.0
    fusion_mode: str = "average"


@dataclass
class ModelConfig:
    dim: int = 64
    hidden: list = field(default_factory=lambda: [64])
    lr: float = 0.001
    batch_size: int = 256
    epochs: int = 1
    seed: int = 0
    init_std: float = 0.01


@dataclass
class EvalConfig:
    ks: list = field(default_factory=lambda: [5, 10])
    n_negatives: int = 99
    seed: int | None = None  # falls back to model.seed


@dataclass
class TrainConfig:
    task: str
    data: DataConfig
    cage: CageConfig
    model: ModelConfig
    eval: EvalConfig

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> "TrainConfig":
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.data.format not in DATA_FORMATS:
            raise ConfigError(f"unknown data format {self.data.format!r}")
        if not isinstance(self.data.path, str) or not self.data.path:
            raise ConfigError(f"data.path must be a non-empty string, got {self.data.path!r}")
        levels = self.cage.levels
        if (self.cage.user_enabled or self.cage.item_enabled) and not levels:
            raise ConfigError("cage.levels is required when a quantizer is enabled")
        if any(int(v) < 1 for v in levels):
            raise ConfigError("codebook sizes must be >= 1")
        if any(a <= b for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"cage.levels must be strictly decreasing, got {levels}")
        for name in ("alpha", "beta", "omega_q", "omega_c"):
            if getattr(self.cage, name) < 0:
                raise ConfigError(f"cage.{name} must be >= 0")
        if self.cage.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.model.dim < 1:
            raise ConfigError("model.dim must be >= 1")
        if self.model.seed is None:
            raise ConfigError("model.seed is required")
        if self.model.seed < 0 or (self.eval.seed is not None and self.eval.seed < 0):
            raise ConfigError("model.seed and eval.seed must be >= 0")
        if self.model.epochs < 0 or self.model.batch_size < 1:
            raise ConfigError("invalid schedule")
        if self.model.lr <= 0 or self.model.init_std <= 0:
            raise ConfigError("lr and init_std must be > 0")
        if not self.eval.ks or any(k < 1 for k in self.eval.ks):
            raise ConfigError("eval.ks must be positive")
        if self.eval.n_negatives < 1:
            raise ConfigError("eval.n_negatives must be >= 1")
        if self.task in ("cf", "ctr") and self.data.format == "lists":
            raise ConfigError(f"task {self.task!r} reads interactions; "
                              "data.format 'lists' is for list-completion")
        if self.task == "list-completion" and self.data.format != "lists":
            raise ConfigError(f"list-completion reads item lists; set data.format to \"lists\", "
                              f"not {self.data.format!r}")
        if self.task == "list-completion" and self.cage.user_enabled:
            raise ConfigError("list-completion uses an item-side quantizer only")
        return self


def _build(cls, raw: dict, where: str):
    allowed = {f for f in cls.__dataclass_fields__}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return cls(**raw)


def config_from_dict(doc: dict) -> TrainConfig:
    allowed = {"task", "data", "cage", "model", "eval"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    missing = {"task", "data", "model"} - set(doc)
    if missing:
        raise ConfigError(f"missing required key(s): {sorted(missing)}")
    cfg = TrainConfig(
        task=doc["task"],
        data=_build(DataConfig, doc.get("data", {}), "data"),
        cage=_build(CageConfig, doc.get("cage", {}), "cage"),
        model=_build(ModelConfig, doc.get("model", {}), "model"),
        eval=_build(EvalConfig, doc.get("eval", {}), "eval"),
    )
    return cfg.validate()


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)
