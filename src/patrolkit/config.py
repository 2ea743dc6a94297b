"""Pipeline configuration: nested keys in a plain-text file.

The file format is one dotted key per line, ``section.key = value``, with
``#`` comments. Values are parsed as JSON where possible (numbers, lists,
booleans) and fall back to bare strings. Every key can be overridden on
the command line as ``--section.key=value``.
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
        "num_trees": 25,
        "max_depth": 10,
        "min_leaf": 1,
        "undersample_ratio": 1.0,
        "gp_max_points": 400,
        "gp_lengthscale": None,  # null -> median heuristic
        "gp_signal_var": 1.0,
        "gp_jitter": 1e-6,
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


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError(f"unknown configuration section {dotted!r}")
        node = node[p]
    if parts[-1] not in node:
        raise ConfigError(f"unknown configuration key {dotted!r}")
    node[parts[-1]] = value


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
            _set_dotted(cfg, key.strip(), parse_scalar(value))
    for ov in overrides or []:
        item = ov[2:] if ov.startswith("--") else ov
        if "=" not in item:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        key, _, value = item.partition("=")
        _set_dotted(cfg, key.strip(), parse_scalar(value))
    return cfg
