"""Experiment configuration: defaults, file loading, overrides, validation.

Configs are plain JSON. Resolution deep-merges (defaults <- config file
<- --set overrides <- dedicated flags), validates every field, and
builds the runtime objects. The fully-resolved dictionary is kept for
echoing into output sidecars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .qsim import NoiseProfile
from .spinham import (
    BOHR_MAGNETON_NEV_PER_MT,
    HBAR_NEV_US,
    RadicalPairSystem,
)

MODES = ("reference", "statevector", "density")
NUCLEAR_CONFIGS = ("up", "down", "mixed")
TAIL_POLICIES = ("none", "extend")


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field's path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


DEFAULTS: dict = {
    "system": {
        "field_mT": 0.05,
        "theta_rad": math.pi / 2,
        "phi_rad": 0.0,
        "g_factors": [2.0, 2.0],
        "nuclei": [
            {
                "site": 0,
                "tensor_neV": [[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 10.0]],
            }
        ],
        "k_singlet_MHz": 1.0,
        "k_triplet_MHz": 1.0,
        "bohr_magneton_neV_per_mT": BOHR_MAGNETON_NEV_PER_MT,
        "hbar_neV_us": HBAR_NEV_US,
    },
    "mode": "reference",
    "trotter_steps": 5,
    "t_max_us": 1.0,
    "dt_us": 0.001,
    "theta_grid": {"count": 128, "range": [0.0, math.pi]},
    "nuclear": "mixed",
    "shots": 0,
    "seed": 12345,
    "tail": "none",
    "noise": {
        "enabled": False,
        "p_depol_1q": 3e-4,
        "p_depol_2q": 8e-3,
        "readout_flip_0to1": 2e-2,
        "readout_flip_1to0": 2e-2,
    },
    "output": ".",
}


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("--config", f"{path} must contain a JSON object")
    return raw


def deep_merge(base: dict, override: dict) -> dict:
    """New dict; nested dicts merge key by key, anything else replaces."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def parse_override(text: str) -> tuple[list[str], Any]:
    """Parse one --set entry: dotted.path=json-or-string value."""
    if "=" not in text:
        raise ConfigError("--set", f"expected key=value, got {text!r}")
    key, _, raw_value = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError("--set", f"empty key in {text!r}")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare strings stay strings
    return key.split("."), value


def apply_overrides(cfg: dict, overrides) -> dict:
    out = json.loads(json.dumps(cfg))  # deep copy of plain JSON data
    for text in overrides:
        path, value = parse_override(text)
        node = out
        for part in path[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        if path[-1] == "theta_grid" and not isinstance(value, dict):
            raise ConfigError("theta_grid", "must be an object")
        node[path[-1]] = value
        # the two theta_grid variants are exclusive; switching drops the other
        if path[:-1] == ["theta_grid"]:
            if path[-1] == "values":
                node.pop("count", None)
                node.pop("range", None)
            else:
                node.pop("values", None)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, resolved experiment description."""

    system: RadicalPairSystem
    mode: str
    trotter_steps: int
    t_max: float
    dt: float
    thetas: np.ndarray
    nuclear: str
    shots: int
    seed: int
    tail: str
    noise: NoiseProfile
    output: str
    resolved: dict  # JSON-ready echo of every field after merging


def _require_number(path: str, value, minimum=None, strict=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None:
        if strict and v <= minimum:
            raise ConfigError(path, f"must be > {minimum}")
        if not strict and v < minimum:
            raise ConfigError(path, f"must be >= {minimum}")
    return v


def _require_int(path: str, value, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _resolve_system(block: dict) -> RadicalPairSystem:
    if not isinstance(block, dict):
        raise ConfigError("system", "must be an object")
    known = set(DEFAULTS["system"])
    for key in block:
        if key not in known:
            raise ConfigError(f"system.{key}", "unknown field")
    field = _require_number("system.field_mT", block["field_mT"], 0.0)
    theta = _require_number("system.theta_rad", block["theta_rad"])
    phi = _require_number("system.phi_rad", block["phi_rad"])
    g = block["g_factors"]
    if not isinstance(g, (list, tuple)) or len(g) != 2:
        raise ConfigError("system.g_factors", "expected two values")
    g = tuple(
        _require_number(f"system.g_factors[{i}]", v) for i, v in enumerate(g)
    )
    nuclei = []
    raw_nuclei = block["nuclei"]
    if not isinstance(raw_nuclei, list):
        raise ConfigError("system.nuclei", "expected a list")
    for i, entry in enumerate(raw_nuclei):
        if not isinstance(entry, dict) or set(entry) != {"site", "tensor_neV"}:
            raise ConfigError(
                f"system.nuclei[{i}]", "expected {site, tensor_neV}"
            )
        site = _require_int(f"system.nuclei[{i}].site", entry["site"], 0)
        if site > 1:
            raise ConfigError(
                f"system.nuclei[{i}].site", "must be 0 or 1 (electron index)"
            )
        tensor = np.asarray(entry["tensor_neV"], dtype=float)
        if tensor.shape != (3, 3) or not np.all(np.isfinite(tensor)):
            raise ConfigError(
                f"system.nuclei[{i}].tensor_neV", "expected a finite 3x3 matrix"
            )
        nuclei.append((site, tensor))
    k_s = _require_number("system.k_singlet_MHz", block["k_singlet_MHz"], 0.0)
    k_t = _require_number("system.k_triplet_MHz", block["k_triplet_MHz"], 0.0)
    mu = _require_number(
        "system.bohr_magneton_neV_per_mT", block["bohr_magneton_neV_per_mT"], 0.0, True
    )
    hbar = _require_number("system.hbar_neV_us", block["hbar_neV_us"], 0.0, True)
    return RadicalPairSystem(
        field_magnitude=field,
        theta=theta,
        phi=phi,
        g_factors=g,
        bohr_magneton=mu,
        hbar=hbar,
        nuclei=tuple(nuclei),
        k_singlet=k_s,
        k_triplet=k_t,
    )


def _resolve_theta_grid(block) -> np.ndarray:
    if not isinstance(block, dict):
        raise ConfigError("theta_grid", "must be an object")
    if "values" in block:
        if set(block) != {"values"}:
            raise ConfigError("theta_grid", "values cannot mix with count/range")
        values = block["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("theta_grid.values", "expected a non-empty list")
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ConfigError("theta_grid.values", "expected finite numbers")
        if len(arr) > 1 and not np.all(np.diff(arr) > 0):
            raise ConfigError("theta_grid.values", "must be strictly increasing")
        return arr
    if set(block) != {"count", "range"}:
        raise ConfigError("theta_grid", "expected {count, range} or {values}")
    count = _require_int("theta_grid.count", block["count"], 1)
    rng = block["range"]
    if not isinstance(rng, (list, tuple)) or len(rng) != 2:
        raise ConfigError("theta_grid.range", "expected [start, stop]")
    start = _require_number("theta_grid.range[0]", rng[0])
    stop = _require_number("theta_grid.range[1]", rng[1])
    if count > 1 and stop <= start:
        raise ConfigError("theta_grid.range", "stop must exceed start")
    return np.linspace(start, stop, count)


def resolve(
    raw: dict | None = None,
    overrides=(),
    seed: int | None = None,
    output: str | None = None,
) -> ExperimentConfig:
    """Merge, validate, and build the experiment objects.

    Precedence, lowest to highest: defaults, config file, --set
    overrides, dedicated CLI flags.
    """
    cfg = DEFAULTS
    if raw:
        for key in raw:
            if key not in DEFAULTS:
                raise ConfigError(key, "unknown field")
        cfg = deep_merge(cfg, raw)
        # an explicit values list replaces the default count/range grid
        grid = raw.get("theta_grid")
        if isinstance(grid, dict) and "values" in grid:
            cfg["theta_grid"] = dict(grid)
    cfg = apply_overrides(cfg, overrides)
    for key in cfg:
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown field")
    if seed is not None:
        cfg["seed"] = seed
    if output is not None:
        cfg["output"] = output

    system = _resolve_system(cfg["system"])
    mode = cfg["mode"]
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {', '.join(MODES)}")
    steps = _require_int("trotter_steps", cfg["trotter_steps"], 1)
    dt = _require_number("dt_us", cfg["dt_us"], 0.0, strict=True)
    t_max = _require_number("t_max_us", cfg["t_max_us"])
    if t_max < dt:
        raise ConfigError("t_max_us", "must be >= dt_us")
    thetas = _resolve_theta_grid(cfg["theta_grid"])
    nuclear = cfg["nuclear"]
    if nuclear not in NUCLEAR_CONFIGS:
        raise ConfigError("nuclear", f"must be one of {', '.join(NUCLEAR_CONFIGS)}")
    shots = _require_int("shots", cfg["shots"], 0)
    seed_v = _require_int("seed", cfg["seed"], 0)
    if seed_v >= 2**64:
        raise ConfigError("seed", "must fit in 64 bits")
    tail = cfg["tail"]
    if tail not in TAIL_POLICIES:
        raise ConfigError("tail", f"must be one of {', '.join(TAIL_POLICIES)}")
    if tail == "extend" and system.k_singlet <= 0:
        raise ConfigError("tail", "extension needs k_singlet_MHz > 0")
    # the same whole-step test as protocols.time_grid, reported on the field
    if tail == "none" and not round(t_max / dt, 9).is_integer():
        raise ConfigError(
            "dt_us", f"t_max_us={t_max} is not a whole number of {dt} steps"
        )

    noise_block = cfg["noise"]
    if not isinstance(noise_block, dict):
        raise ConfigError("noise", "must be an object")
    for key in noise_block:
        if key not in DEFAULTS["noise"]:
            raise ConfigError(f"noise.{key}", "unknown field")
    if not isinstance(noise_block["enabled"], bool):
        raise ConfigError("noise.enabled", "expected true or false")
    knobs = {}
    for key in ("p_depol_1q", "p_depol_2q", "readout_flip_0to1", "readout_flip_1to0"):
        v = _require_number(f"noise.{key}", noise_block[key], 0.0)
        if v > 1.0:
            raise ConfigError(f"noise.{key}", "must be <= 1")
        knobs[key] = v
    noise = NoiseProfile(enabled=noise_block["enabled"], **knobs)
    if noise.enabled and mode != "density":
        raise ConfigError("noise.enabled", "noise requires mode=density")

    output_v = cfg["output"]
    if not isinstance(output_v, str) or not output_v:
        raise ConfigError("output", "expected a directory path")

    return ExperimentConfig(
        system=system,
        mode=mode,
        trotter_steps=steps,
        t_max=t_max,
        dt=dt,
        thetas=thetas,
        nuclear=nuclear,
        shots=shots,
        seed=seed_v,
        tail=tail,
        noise=noise,
        output=output_v,
        resolved=cfg,
    )
