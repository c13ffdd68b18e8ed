"""Configuration parsing, presets, and result persistence.

Config files are flat UTF-8 ``key = value`` text: one setting per line,
values in JSON syntax (bare words are taken as strings), ``#`` comments.
The same format is emitted back as the resolved configuration, and reloading
that file reproduces the identical experiment.

This module only reads text: it checks value types, converts units and
names the key in every error. The dataclasses own the ranges and, except for
the density and pair distance that `PppConfig` does not default, the
defaults (`default_channel` for the channel); an absent key is not passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .channel import (
    ChannelParams,
    dbm_to_watts,
    default_channel,
    freespace_pathloss_const,
    db_to_linear,
    thermal_noise_watts,
)
from .control import LtiSystem
from .geometry import PppConfig, default_window_radius
from .montecarlo import ExperimentConfig

__all__ = ["load_config", "parse_config_text", "resolved_config_text",
           "config_hash", "emit_results", "preset_path", "PRESET_NAMES"]

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

# Plain keys are `ExperimentConfig` fields of the same name; each maps to the
# type its value must have (a tuple holds floats, and a lone number is a
# one-element tuple).
_PLAIN_KEYS = {
    "q_values": tuple, "arms": tuple, "T": int, "v": int, "K": int,
    "num_realizations": int, "seed": int, "process_noise_std": float,
    "state_level": bool, "fixed_geometry": bool, "beta_values": tuple,
    "threads": int,
}

# Choice keys: the `ExperimentConfig` field each sets and what each word means.
_CHOICES = {
    "protocol": ("protocols", {"block": ("block",), "classical": ("classical",),
                               "both": ("block", "classical")}),
    "system": ("systems", {"restless": ("restless",), "rested": ("rested",),
                           "both": ("restless", "rested")}),
}

# Each `ChannelParams` field and the keys that can set it, the first present
# one winning; the keys in `_TO_LINEAR` are converted to linear SI units.
_CHANNEL_KEYS = {
    "tx_power_eta": ("tx_power_w", "tx_power_dbm"),
    "pathloss_const_rho": ("rho", "carrier_hz"),
    "pathloss_exp_alpha": ("alpha",),
    "noise_power_N0": ("noise_power_w", "noise_power_dbm", "bandwidth_hz"),
    "sinr_threshold_gamma": ("gamma", "gamma_db"),
}
_TO_LINEAR = {
    "tx_power_dbm": dbm_to_watts, "carrier_hz": freespace_pathloss_const,
    "noise_power_dbm": dbm_to_watts, "gamma_db": db_to_linear,
}

# Keys whose values are single numbers.
_NUMBER_KEYS = ("lambda", "r0", "window_radius", "noise_figure_db", "q",
                *(key for keys in _CHANNEL_KEYS.values() for key in keys))

_KNOWN_KEYS = {*_NUMBER_KEYS, *_CHOICES, *_PLAIN_KEYS, "A", "B", "x_des"}

_EXPECTED = {int: "an integer", float: "a number", bool: "true/false",
             tuple: "a number or list of numbers"}


def preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return Path(str(resources.files("alohactrl").joinpath(f"presets/{name}.conf")))


def _entry(key: str, raw: str):
    """(key, value) of one setting; the value is JSON, a bare word a string."""
    key = key.strip()
    if key not in _KNOWN_KEYS:
        raise ValueError(f"config key {key!r}: unknown key")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw.strip()


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a dict, rejecting unknown keys."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = _entry(*stripped.split("=", 1))
        out[key] = value
    return out


def _is_number(val) -> bool:
    """A JSON number: not a bool, and not the NaN or Infinity that `json` also reads."""
    if isinstance(val, float):
        return math.isfinite(val)
    return isinstance(val, int) and not isinstance(val, bool)


def _typed(key: str, val, kind: type):
    """`val` as `kind` (int, float, bool or a tuple of floats), or an error
    naming the key when its JSON type is wrong."""
    if kind is tuple:
        items = val if isinstance(val, list) else [val]
        if all(map(_is_number, items)):
            return tuple(float(x) for x in items)
    elif kind is bool:
        if isinstance(val, bool):
            return val
    elif _is_number(val) and (kind is float or isinstance(val, int)):
        return kind(val)
    raise ValueError(f"config key {key!r}: expected {_EXPECTED[kind]}, got {val!r}")


def _build(cls, key_of: dict, *args, **kwargs):
    """cls(*args, **kwargs), re-raising a range error with the config key of
    the field it rejects (each message begins with that field's name)."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        field = str(exc).split(maxsplit=1)[0]
        raise ValueError(f"config key {key_of.get(field) or field!r}: {exc}") from exc


def build_experiment_config(data: dict) -> ExperimentConfig:
    """Check the parsed key-value map's types, convert units and assemble an
    ExperimentConfig; the dataclasses apply the defaults and range checks."""
    num = {key: _typed(key, data[key], float) for key in _NUMBER_KEYS if key in data}
    for key in ("carrier_hz", "bandwidth_hz"):  # no dataclass sees these
        if num.get(key, 1.0) <= 0.0:
            raise ValueError(f"config key {key!r}: must be > 0, got {num[key]}")

    lam, r0 = num.get("lambda", 5e-3), num.get("r0", 10.0)
    radius = num["window_radius"] if "window_radius" in num else default_window_radius(lam, r0)
    ppp = _build(PppConfig, {"intensity_lambda": "lambda", "window_radius_R": "window_radius",
                             "typical_distance_r0": "r0"}, lam, radius, r0)

    channel, channel_key = asdict(default_channel()), {}
    for field, keys in _CHANNEL_KEYS.items():
        key = next((k for k in keys if k in num), None)
        if key == "bandwidth_hz":
            channel[field] = thermal_noise_watts(num[key], num.get("noise_figure_db", 0.0))
        elif key is not None:
            channel[field] = _TO_LINEAR.get(key, float)(num[key])
        channel_key[field] = key
    if "noise_figure_db" in num and channel_key["noise_power_N0"] != "bandwidth_hz":
        raise ValueError("config key 'noise_figure_db': raises the thermal floor, so it "
                         "needs 'bandwidth_hz' to set the noise power")
    channel = _build(ChannelParams, channel_key, **channel)

    fields = {key: _typed(key, data[key], kind)
              for key, kind in _PLAIN_KEYS.items() if key in data}
    for key, (field, options) in _CHOICES.items():
        if key in data:
            if not (isinstance(data[key], str) and data[key] in options):
                raise ValueError(f"config key {key!r}: {data[key]!r} not one of "
                                 + "|".join(options))
            fields[field] = options[data[key]]
    experiment_key = {}
    if "q" in num:  # an explicit single q wins over a preset sweep list
        fields["q_values"], experiment_key["q_values"] = (num["q"],), "q"
    config = _build(ExperimentConfig, experiment_key, ppp=ppp, channel=channel, **fields)

    if "A" in data or "B" in data:
        if not ("A" in data and "B" in data and "x_des" in data):
            raise ValueError("config keys 'A'/'B'/'x_des': all three are required together")
        try:
            plant = LtiSystem(
                np.asarray(data["A"], float), np.asarray(data["B"], float),
                np.asarray(data["x_des"], float), v=config.v,
                process_noise_std=config.process_noise_std,
            )
        except ValueError as exc:
            raise ValueError(f"config key 'A'/'B'/'x_des': {exc}") from exc
        config = replace(config, plant=plant)
    return config


def load_config(path, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Load a config file (or preset name), apply key=value overrides."""
    p = Path(path)
    if not p.exists() and str(path) in PRESET_NAMES:
        p = preset_path(str(path))
    if not p.exists():
        raise FileNotFoundError(f"config file {path!r} not found")
    data = parse_config_text(p.read_text(encoding="utf-8"))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected key=value")
        key, value = _entry(*item.split("=", 1))
        data[key] = value
    return build_experiment_config(data)


def resolved_config_text(config: ExperimentConfig) -> str:
    """Canonical resolved form; reloading it reproduces the same experiment."""
    lines = [
        "# resolved alohactrl configuration",
        f"lambda = {config.ppp.intensity_lambda!r}",
        f"r0 = {config.ppp.typical_distance_r0!r}",
        f"window_radius = {config.ppp.window_radius_R!r}",
        # the first key of each channel field is its linear SI key
        *(f"{keys[0]} = {getattr(config.channel, f)!r}" for f, keys in _CHANNEL_KEYS.items()),
    ]
    for key, (field, options) in _CHOICES.items():
        value = getattr(config, field)
        lines.append(f"{key} = " + next(w for w, v in options.items() if v == value))
    lines += [f"{key} = {json.dumps(getattr(config, key))}" for key in _PLAIN_KEYS]
    if config.plant is not None:
        lines += [f"{key} = {json.dumps(getattr(config.plant, key).tolist())}"
                  for key in ("A", "B", "x_des")]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(resolved_config_text(config).encode()).hexdigest()


def emit_results(
    artifacts: dict[str, str],
    out_dir,
    config: ExperimentConfig,
    force: bool = False,
    wall_time_s: float = 0.0,
) -> list[Path]:
    """Write result files plus a manifest; refuse to overwrite unless forced."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = dict(artifacts)
    artifacts.setdefault("resolved_config.conf", resolved_config_text(config))
    written = []
    for name, content in artifacts.items():
        target = out / name
        if target.exists() and not force:
            raise FileExistsError(f"{target} exists; pass force=True/--force to overwrite")
        target.write_text(content, encoding="utf-8")
        written.append(target)
    manifest = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "toolkit_version": __version__,
        "wall_time_s": wall_time_s,
        "files": sorted(p.name for p in written),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written
