"""Experiment configuration: one strict JSON document.

Unknown keys anywhere in the document are rejected so that a typo in a sweep
never silently falls back to a default.  FIELDS declares each field's kind,
default and bound once; values are checked, never coerced.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from dataclasses import asdict, dataclass, field, make_dataclass

from .errors import ConfigError

TASKS = ("cf", "ctr", "list-completion")
DATA_FORMATS = ("generic-tsv", "movielens-100k", "lists")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# a kind is (what a value must be, its test); a finite number may be a JSON int
INT = ("an integer", _is_int)
NUMBER = ("a finite number", lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max)
BOOL = ("true or false", lambda v: isinstance(v, bool))
TEXT = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)))
OPTIONAL_INT = ("an integer or null", lambda v: v is None or _is_int(v))


def one_of(choices: tuple):
    return (f"one of {choices}", lambda v: v in choices)


# section -> field -> (kind, default, bound); a list's bound holds for each of its entries
FIELDS = {
    "data": {
        "path": (TEXT, "", None),
        "format": (one_of(DATA_FORMATS), "generic-tsv", None),
        "min_freq": (INT, 10, (">=", 1)),
        "min_len": (INT, 2, (">=", 0)),
        "max_len": (INT, 200, (">=", 0)),
    },
    "cage": {
        "user_enabled": (BOOL, False, None),
        "item_enabled": (BOOL, False, None),
        "levels": (INTS, [], (">=", 1)),  # [v1, ..., vH], strictly decreasing
        "alpha": (NUMBER, 1.0, (">=", 0)),
        "beta": (NUMBER, 1.0, (">=", 0)),
        "omega_q": (NUMBER, 1.0, (">=", 0)),
        "omega_c": (NUMBER, 1.0, (">=", 0)),
    },
    "model": {
        "dim": (INT, 64, (">=", 1)),
        "hidden": (INTS, [64], (">=", 1)),
        "lr": (NUMBER, 0.001, (">", 0)),
        "batch_size": (INT, 256, (">=", 1)),
        "epochs": (INT, 1, (">=", 0)),
        "seed": (INT, 0, None),  # >= 0, checked together with eval.seed
        "init_std": (NUMBER, 0.01, (">", 0)),
    },
    "eval": {
        "ks": (INTS, [5, 10], (">=", 1)),
        "n_negatives": (INT, 99, (">=", 1)),
        "seed": (OPTIONAL_INT, None, None),  # falls back to model.seed
    },
}

# one dataclass per section, e.g. SECTIONS["data"] is DataConfig
SECTIONS = {name: make_dataclass(f"{name.title()}Config", [
    (key, object, field(default_factory=functools.partial(copy.deepcopy, default)))
    for key, (_, default, _) in fields.items()]) for name, fields in FIELDS.items()}


def _check(where: str, kind, bound, value):
    """value must be of kind, and within bound (each entry, for a list)."""
    what, test = kind
    if not test(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    if bound is not None:
        op, limit = bound
        entries = value if isinstance(value, list) else [value]
        if not all(v > limit if op == ">" else v >= limit for v in entries):
            raise ConfigError(f"{where}{' entries' * (entries is value)} must be {op} {limit}, got {value!r}")


@dataclass
class TrainConfig:
    task: str
    data: SECTIONS["data"]
    cage: SECTIONS["cage"]
    model: SECTIONS["model"]
    eval: SECTIONS["eval"]

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> "TrainConfig":
        _check("task", one_of(TASKS), None, self.task)
        for name, fields in FIELDS.items():
            for key, (kind, _, bound) in fields.items():
                _check(f"{name}.{key}", kind, bound, getattr(getattr(self, name), key))
        if (self.cage.user_enabled or self.cage.item_enabled) and not self.cage.levels:
            raise ConfigError("cage.levels is required when a quantizer is enabled")
        if any(a <= b for a, b in zip(self.cage.levels, self.cage.levels[1:])):
            raise ConfigError(f"cage.levels must be strictly decreasing, got {self.cage.levels}")
        if self.model.seed < 0 or (self.eval.seed is not None and self.eval.seed < 0):
            raise ConfigError("model.seed and eval.seed must be >= 0")
        if not self.eval.ks:
            raise ConfigError("eval.ks must not be empty")
        if self.task == "list-completion" and self.data.max_len < max(self.data.min_len, 2):
            raise ConfigError(f"data.max_len must be >= max(data.min_len, 2) = {max(self.data.min_len, 2)}, "
                              f"got {self.data.max_len}")
        if self.task in ("cf", "ctr") and self.data.format == "lists":
            raise ConfigError(f"task {self.task!r} reads interactions; "
                              "data.format 'lists' is for list-completion")
        if self.task == "list-completion" and self.data.format != "lists":
            raise ConfigError(f"list-completion reads item lists; set data.format to \"lists\", "
                              f"not {self.data.format!r}")
        if self.task == "list-completion" and self.cage.user_enabled:
            raise ConfigError("list-completion uses an item-side quantizer only")
        return self


def config_from_dict(doc) -> TrainConfig:
    """The one way in for a config: a config file, a checkpoint's stored config, evaluate overrides."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"task", *SECTIONS}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    missing = {"task", "data", "model"} - set(doc)
    if missing:
        raise ConfigError(f"missing required key(s): {sorted(missing)}")
    sections = {}
    for name, cls in SECTIONS.items():
        raw = doc.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(FIELDS[name])
        if unknown:
            raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
        sections[name] = cls(**raw)
    return TrainConfig(task=doc["task"], **sections).validate()


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(doc)
