"""Configuration parsing, presets, and result persistence.

Config files are flat UTF-8 ``key = value`` text: one setting per line,
values in JSON syntax (bare words are taken as strings), ``#`` comments.
The same format is emitted back as the resolved configuration, and reloading
that file reproduces the identical experiment.
"""

from __future__ import annotations

import hashlib
import json
import time
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .aloha import Protocol
from .channel import (
    ChannelParams,
    dbm_to_watts,
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

_KNOWN_KEYS = {
    "lambda", "r0", "window_radius",
    "tx_power_dbm", "tx_power_w",
    "alpha", "gamma", "gamma_db",
    "noise_power_dbm", "noise_power_w", "bandwidth_hz", "noise_figure_db",
    "carrier_hz", "rho",
    "protocol", "system", "q", "q_values", "arms",
    "T", "v", "K", "num_realizations", "seed",
    "process_noise_std", "state_level", "fixed_geometry",
    "beta_values", "threads",
    "A", "B", "x_des",
}


def preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return Path(str(resources.files("alohactrl").joinpath(f"presets/{name}.conf")))


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare word -> string


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a dict, rejecting unknown keys."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config key {key!r}: unknown key")
        out[key] = _parse_value(raw)
    return out


def _require_number(data, key, lo=None, hi=None, lo_open=False):
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"config key {key!r}: expected a number, got {val!r}")
    val = float(val)
    if lo is not None and (val <= lo if lo_open else val < lo):
        raise ValueError(f"config key {key!r}: value {val} below allowed range")
    if hi is not None and val > hi:
        raise ValueError(f"config key {key!r}: value {val} above allowed range")
    return val


def _as_tuple(val, key):
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return (float(val),)
    if isinstance(val, list):
        return tuple(float(x) for x in val)
    raise ValueError(f"config key {key!r}: expected a number or list")


def build_experiment_config(data: dict) -> ExperimentConfig:
    """Validate the parsed key-value map and assemble an ExperimentConfig."""
    data = dict(data)

    lam = _require_number(data, "lambda", lo=0.0) if "lambda" in data else 5e-3
    r0 = _require_number(data, "r0", lo=0.0, lo_open=True) if "r0" in data else 10.0
    if "window_radius" in data:
        R = _require_number(data, "window_radius", lo=0.0, lo_open=True)
    else:
        R = default_window_radius(lam, r0)
    try:
        ppp = PppConfig(lam, R, r0)
    except ValueError as exc:
        raise ValueError(f"config key 'lambda'/'window_radius'/'r0': {exc}") from exc

    if "tx_power_w" in data:
        eta = _require_number(data, "tx_power_w", lo=0.0, lo_open=True)
    elif "tx_power_dbm" in data:
        eta = dbm_to_watts(_require_number(data, "tx_power_dbm"))
    else:
        eta = dbm_to_watts(24.0)

    alpha = _require_number(data, "alpha", lo=2.0) if "alpha" in data else 2.0

    if "rho" in data:
        rho = _require_number(data, "rho", lo=0.0, lo_open=True)
    elif "carrier_hz" in data:
        rho = freespace_pathloss_const(_require_number(data, "carrier_hz", lo=0.0, lo_open=True))
    else:
        rho = freespace_pathloss_const(3.2e9)

    if "noise_power_w" in data:
        N0 = _require_number(data, "noise_power_w", lo=0.0)
    elif "noise_power_dbm" in data:
        N0 = dbm_to_watts(_require_number(data, "noise_power_dbm"))
    elif "bandwidth_hz" in data:
        nf = _require_number(data, "noise_figure_db") if "noise_figure_db" in data else 0.0
        N0 = thermal_noise_watts(_require_number(data, "bandwidth_hz", lo=0.0, lo_open=True), nf)
    else:
        N0 = thermal_noise_watts(200e6)

    if "gamma" in data:
        gamma = _require_number(data, "gamma", lo=0.0, lo_open=True)
    elif "gamma_db" in data:
        gamma = db_to_linear(_require_number(data, "gamma_db"))
    else:
        gamma = 1.0

    try:
        channel = ChannelParams(eta, rho, alpha, N0, gamma)
    except ValueError as exc:
        raise ValueError(f"config key 'alpha'/'gamma'/noise keys: {exc}") from exc

    protocol_raw = data.get("protocol", "both")
    if protocol_raw == "both":
        protocols: tuple = (Protocol.BLOCK, Protocol.CLASSICAL)
    else:
        try:
            protocols = (Protocol(protocol_raw),)
        except ValueError as exc:
            raise ValueError(f"config key 'protocol': {protocol_raw!r} not one of "
                             "block|classical|both") from exc

    system_raw = data.get("system", "both")
    if system_raw == "both":
        systems: tuple = ("restless", "rested")
    elif system_raw in ("restless", "rested"):
        systems = (system_raw,)
    else:
        raise ValueError(f"config key 'system': {system_raw!r} not one of "
                         "restless|rested|both")

    if "q" in data:  # an explicit single q wins over a preset sweep list
        q_values = (_require_number(data, "q"),)
    elif "q_values" in data:
        q_values = _as_tuple(data["q_values"], "q_values")
    else:
        q_values = tuple(round(0.1 * i, 10) for i in range(1, 11))
    for q in q_values:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"config key 'q': value {q} outside (0, 1]")

    arms = _as_tuple(data["arms"], "arms") if "arms" in data else \
        tuple(round(0.1 * i, 10) for i in range(1, 11))
    for a in arms:
        if not 0.0 < a <= 1.0:
            raise ValueError(f"config key 'arms': value {a} outside (0, 1]")

    def _int(key, default, lo=1):
        if key not in data:
            return default
        val = data[key]
        if isinstance(val, bool) or not isinstance(val, int):
            raise ValueError(f"config key {key!r}: expected an integer")
        if val < lo:
            raise ValueError(f"config key {key!r}: must be >= {lo}")
        return val

    T = _int("T", 20)
    v = _int("v", 4)
    K = _int("K", 1)
    num_realizations = _int("num_realizations", 10000)
    seed = _int("seed", 0, lo=0)
    threads = _int("threads", 1)
    if v > T:
        raise ValueError("config key 'v': must not exceed T")

    noise_std = _require_number(data, "process_noise_std", lo=0.0) \
        if "process_noise_std" in data else 0.0

    def _bool(key):
        val = data.get(key, False)
        if not isinstance(val, bool):
            raise ValueError(f"config key {key!r}: expected true/false")
        return val

    beta_values = _as_tuple(data["beta_values"], "beta_values") if "beta_values" in data else ()
    for b in beta_values:
        if not 0.0 < b < 1.0:
            raise ValueError(f"config key 'beta_values': value {b} outside (0, 1)")

    plant = None
    if "A" in data or "B" in data:
        if not ("A" in data and "B" in data and "x_des" in data):
            raise ValueError("config keys 'A'/'B'/'x_des': all three are required together")
        try:
            plant = LtiSystem(
                np.asarray(data["A"], float), np.asarray(data["B"], float),
                np.asarray(data["x_des"], float), v=v, process_noise_std=noise_std,
            )
        except ValueError as exc:
            raise ValueError(f"config key 'A'/'B'/'x_des': {exc}") from exc

    try:
        return ExperimentConfig(
            ppp=ppp, channel=channel, protocols=protocols, systems=systems,
            q_values=q_values, arms=arms, T=T, v=v, K=K,
            num_realizations=num_realizations, seed=seed,
            process_noise_std=noise_std, state_level=_bool("state_level"),
            fixed_geometry=_bool("fixed_geometry"), beta_values=beta_values,
            threads=threads, plant=plant,
        )
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from exc


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
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config key {key!r}: unknown key")
        data[key] = _parse_value(raw)
    return build_experiment_config(data)


def resolved_config_text(config: ExperimentConfig) -> str:
    """Canonical resolved form; reloading it reproduces the same experiment."""
    lines = [
        "# resolved alohactrl configuration",
        f"lambda = {config.ppp.intensity_lambda!r}",
        f"r0 = {config.ppp.typical_distance_r0!r}",
        f"window_radius = {config.ppp.window_radius_R!r}",
        f"tx_power_w = {config.channel.tx_power_eta!r}",
        f"rho = {config.channel.pathloss_const_rho!r}",
        f"alpha = {config.channel.pathloss_exp_alpha!r}",
        f"noise_power_w = {config.channel.noise_power_N0!r}",
        f"gamma = {config.channel.sinr_threshold_gamma!r}",
        "protocol = " + ("both" if len(config.protocols) == 2 else config.protocols[0].value),
        "system = " + ("both" if len(config.systems) == 2 else config.systems[0]),
        f"q_values = {json.dumps(list(config.q_values))}",
        f"arms = {json.dumps(list(config.arms))}",
        f"T = {config.T}",
        f"v = {config.v}",
        f"K = {config.K}",
        f"num_realizations = {config.num_realizations}",
        f"seed = {config.seed}",
        f"process_noise_std = {config.process_noise_std!r}",
        f"state_level = {json.dumps(config.state_level)}",
        f"fixed_geometry = {json.dumps(config.fixed_geometry)}",
        f"beta_values = {json.dumps(list(config.beta_values))}",
        f"threads = {config.threads}",
    ]
    if config.plant is not None:
        lines.append(f"A = {json.dumps(config.plant.A.tolist())}")
        lines.append(f"B = {json.dumps(config.plant.B.tolist())}")
        lines.append(f"x_des = {json.dumps(config.plant.x_des.tolist())}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(resolved_config_text(config).encode()).hexdigest()


def emit_results(
    artifacts: dict[str, str],
    out_dir,
    config: Optional[ExperimentConfig] = None,
    force: bool = False,
    wall_time_s: float = 0.0,
) -> list[Path]:
    """Write result files plus a manifest; refuse to overwrite unless forced."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = dict(artifacts)
    if config is not None:
        artifacts.setdefault("resolved_config.conf", resolved_config_text(config))
    written = []
    for name, content in artifacts.items():
        target = out / name
        if target.exists() and not force:
            raise FileExistsError(f"{target} exists; pass force=True/--force to overwrite")
        target.write_text(content, encoding="utf-8")
        written.append(target)
    manifest = {
        "config_hash": config_hash(config) if config is not None else None,
        "seed": config.seed if config is not None else None,
        "toolkit_version": __version__,
        "wall_time_s": wall_time_s,
        "files": sorted(p.name for p in written),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written
