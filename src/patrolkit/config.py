"""Pipeline configuration: nested keys in a plain-text file.

The file format is one dotted key per line, ``section.key = value``, with
``#`` comments. Values are parsed as JSON where possible (numbers, lists)
and fall back to bare strings. A value must have the JSON kind of its
default in ``DEFAULTS``, and an integral value where that default is an
integer. Every key can be overridden on the command line
as ``--section.key=value``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


DEFAULTS: dict = {
    "seed": 0,
    "output_dir": "out",
    "simulate": {
        "preset": "oneside-noise",
    },
    "ingest": {
        "cells": "cells.csv",
        "waypoints": "waypoints.csv",
        "observations": "observations.csv",
        "windows": [],          # ["2017-01-01T00:00:00,2017-04-01T00:00:00", ...]
        "cell_size_km": 1.0,
    },
    "train": {
        "dataset": "",          # default: <output_dir>/dataset.csv
        "cells": "",            # default: <output_dir>/cells.csv
        "holdout_windows": 1,
    },
    "ensemble": {
        "num_thresholds": 10,
        "learner": "trees",
        "folds": 5,             # ignored: kept only for the benchmark's pin
        # learner settings: null -> the learner's own default
        "num_trees": None,
        "max_depth": None,
        "min_leaf": None,
        "undersample_ratio": None,
        "gp_max_points": None,
        "gp_lengthscale": None,
        "gp_signal_var": None,
        "gp_jitter": None,
    },
    "metrics": {
        "threshold": 0.5,
    },
    "riskmap": {
        "levels": [0.5, 1.0, 2.0],
        "segments": 25,
        "c_max": 0.0,           # 0 -> default from historical effort
        "block_size": 3,
        "blocks_per_band": 5,
        "nominal_effort": 0.0,  # 0 -> median positive historical effort
    },
    "planner": {
        "post": -1,             # -1 -> first patrol post
        "T": 6,
        "K": 2,
        "beta": 0.5,
        "beta_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
    },
    "fieldtest": {
        "table": "fieldtest.csv",
    },
}


def parse_scalar(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _kind(value) -> str:
    """JSON kind of a setting; a boolean is not a number."""
    if isinstance(value, bool):
        return "boolean"
    for kind, types in (("number", (int, float)), ("list", list), ("string", str),
                        ("section", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def _set_dotted(cfg: dict, dotted: str, text: str) -> None:
    """Set one key from its text. The value must have its default's JSON
    kind; where the default is null it may also be a number, where it is an
    integer the number must be integral (and is stored as an int), and where
    it is a string, text that is not a JSON string is kept as given. The
    default is read from ``DEFAULTS``, not from a value set earlier."""
    *sections, key = dotted.split(".")
    node, default = cfg, DEFAULTS
    for p in sections:
        if p not in default or not isinstance(default[p], dict):
            raise ConfigError(f"unknown configuration section {dotted!r}")
        node, default = node[p], default[p]
    if key not in default:
        raise ConfigError(f"unknown configuration key {dotted!r}")
    default = default[key]
    want = _kind(default)
    if want == "section":
        raise ConfigError(f"configuration section {dotted!r} cannot be set to a value")
    value = parse_scalar(text)
    if want == "string" and not isinstance(value, str):
        value = text.strip()
    allowed = ("number", "null") if want == "null" else (want,)
    if _kind(value) not in allowed:
        raise ConfigError(f"configuration key {dotted!r} takes a {' or '.join(allowed)}, "
                          f"not {text.strip()!r}")
    if want == "number" and isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"configuration key {dotted!r} takes an integer, "
                              f"not {text.strip()!r}")
        value = int(value)
    node[key] = value


def load_config(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Defaults, then file keys, then command-line overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            _set_dotted(cfg, key.strip(), value)
    for ov in overrides or []:
        item = ov[2:] if ov.startswith("--") else ov
        if "=" not in item:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        key, _, value = item.partition("=")
        _set_dotted(cfg, key.strip(), value)
    return cfg
