"""Command-line experiment harness.

Subcommands map one-to-one onto the measurement protocols: population,
yield-sweep, trotter-sweep, rate-sweep, shot-sweep, and fit. Every run
writes a CSV (header row, LF endings, 9 significant digits) plus a JSON
sidecar echoing the fully-resolved config and the CSV's SHA-256, so a
result file is reproducible from its sidecar alone.

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import protocols
from .config import ConfigError, ExperimentConfig, load_config_file, resolve
from .observables import YieldCurve, anisotropy, pearson_r, rescale_fit
from .qsim import PRNG_ALGORITHM
from .refsolver import apply_decay


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _write_csv(path: str, header: str, rows) -> bytes:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


def _write_sidecar(csv_path: str, csv_blob: bytes, command: str, cfg: ExperimentConfig | None, metadata: dict) -> str:
    sidecar = {
        "command": command,
        "config": None if cfg is None else cfg.resolved,
        "metadata": metadata,
        "csv_sha256": hashlib.sha256(csv_blob).hexdigest(),
    }
    path = os.path.splitext(csv_path)[0] + ".meta.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _out_path(cfg_output: str, name: str) -> str:
    os.makedirs(cfg_output, exist_ok=True)
    return os.path.join(cfg_output, name)


def _parse_list(text: str, flag: str, cast):
    try:
        values = [cast(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(flag, f"expected comma-separated values: {exc}") from exc
    if not values:
        raise ConfigError(flag, "expected at least one value")
    return values


def _active_noise(cfg: ExperimentConfig):
    return cfg.noise if cfg.noise.enabled else None


def _metadata_common(cfg: ExperimentConfig) -> dict:
    return {
        "prng": PRNG_ALGORITHM,
        "system_hash": cfg.system.content_hash(),
    }


def cmd_population(cfg: ExperimentConfig) -> int:
    k = cfg.system.k_singlet
    trace = protocols.population_trace(
        cfg.system,
        mode=cfg.mode,
        n=cfg.trotter_steps,
        noise=_active_noise(cfg),
        nuclear=cfg.nuclear,
        t_max=cfg.t_max,
        dt=cfg.dt,
        tail=cfg.tail,
    )
    decayed = apply_decay(trace, k)
    path = _out_path(cfg.output, "population.csv")
    blob = _write_csv(
        path,
        "time_us,population_raw,population_decayed",
        zip(trace.times, trace.populations, decayed.populations),
    )
    meta = _metadata_common(cfg)
    meta["mode"] = cfg.mode
    _write_sidecar(path, blob, "population", cfg, meta)
    print(path)
    return 0


def cmd_yield_sweep(cfg: ExperimentConfig) -> int:
    if cfg.shots != 0:
        raise ConfigError("shots", "yield sweeps use exact expectations (shots=0)")
    curve = protocols.yield_curve(
        cfg.system,
        cfg.thetas,
        mode=cfg.mode,
        n=cfg.trotter_steps,
        noise=_active_noise(cfg),
        nuclear=cfg.nuclear,
        t_max=cfg.t_max,
        dt=cfg.dt,
        tail=cfg.tail,
    )
    path = _out_path(cfg.output, "yield_sweep.csv")
    blob = _write_csv(
        path, "theta_rad,singlet_yield", zip(curve.thetas, curve.yields)
    )
    meta = _metadata_common(cfg)
    meta["mode"] = cfg.mode
    delta = anisotropy(curve) if len(curve.thetas) > 1 else 0.0
    meta["delta_S"] = float(_fmt(delta))  # the 9 significant digits of the CSV
    _write_sidecar(path, blob, "yield-sweep", cfg, meta)
    print(path)
    return 0


def cmd_trotter_sweep(cfg: ExperimentConfig, n_list) -> int:
    rows = protocols.trotter_sweep(
        cfg.system,
        n_list,
        noise=_active_noise(cfg),
        nuclear=cfg.nuclear,
        t_max=cfg.t_max,
        dt=cfg.dt,
        dt_noisy=cfg.dt,
        tail=cfg.tail,
    )
    noisy = "yield_noisy" in rows[0]
    header = "n,yield_noiseless,yield_noisy" if noisy else "n,yield_noiseless"
    cells = [
        [r["n"], r["yield_noiseless"]] + ([r["yield_noisy"]] if noisy else [])
        for r in rows
    ]
    path = _out_path(cfg.output, "trotter_sweep.csv")
    blob = _write_csv(path, header, cells)
    meta = _metadata_common(cfg)
    meta["n_list"] = [int(n) for n in n_list]
    meta["theta_rad"] = cfg.system.theta
    _write_sidecar(path, blob, "trotter-sweep", cfg, meta)
    print(path)
    return 0


def cmd_rate_sweep(cfg: ExperimentConfig, k_list) -> int:
    rows = protocols.rate_sweep(
        cfg.system,
        k_list,
        mode=cfg.mode,
        n=cfg.trotter_steps,
        nuclear=cfg.nuclear,
        t_max=cfg.t_max,
        dt=cfg.dt,
        tail=cfg.tail,
    )
    path = _out_path(cfg.output, "rate_sweep.csv")
    blob = _write_csv(path, "k_MHz,yield", [[r["k_MHz"], r["yield"]] for r in rows])
    meta = _metadata_common(cfg)
    meta["mode"] = cfg.mode
    meta["k_list_MHz"] = [float(k) for k in k_list]
    meta["theta_rad"] = cfg.system.theta
    _write_sidecar(path, blob, "rate-sweep", cfg, meta)
    print(path)
    return 0


def cmd_shot_sweep(cfg: ExperimentConfig, shot_list) -> int:
    rows = protocols.shot_sweep(
        cfg.system,
        shot_list,
        n=cfg.trotter_steps,
        seed=cfg.seed,
        noise=_active_noise(cfg),
        nuclear=cfg.nuclear,
        t_max=cfg.t_max,
        dt=cfg.dt,
    )
    path = _out_path(cfg.output, "shot_sweep.csv")
    blob = _write_csv(
        path, "shots,rms_error", [[r["shots"], r["rms_error"]] for r in rows]
    )
    meta = _metadata_common(cfg)
    meta["shot_list"] = [int(s) for s in shot_list]
    meta["seed"] = cfg.seed
    meta["theta_rad"] = cfg.system.theta
    _write_sidecar(path, blob, "shot-sweep", cfg, meta)
    print(path)
    return 0


def _read_curve(path: str) -> YieldCurve:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "theta_rad,singlet_yield":
        raise ValueError(f"{path}: expected a theta_rad,singlet_yield CSV")
    thetas, yields = [], []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {line!r}")
        thetas.append(float(parts[0]))
        yields.append(float(parts[1]))
    return YieldCurve(np.asarray(thetas), np.asarray(yields), {"source": path})


def cmd_fit(noisy_file: str, reference_file: str, output: str) -> int:
    noisy = _read_curve(noisy_file)
    reference = _read_curve(reference_file)
    fitted = rescale_fit(noisy, reference)
    r = pearson_r(fitted.yields, reference.yields)
    path = _out_path(output, "fit.csv")
    blob = _write_csv(
        path, "theta_rad,singlet_yield", zip(fitted.thetas, fitted.yields)
    )
    meta = {
        "a": fitted.metadata["rescale_a"],
        "b": fitted.metadata["rescale_b"],
        "pearson_r": r,
        "noisy_file": noisy_file,
        "reference_file": reference_file,
    }
    _write_sidecar(path, blob, "fit", None, meta)
    print(path)
    return 0


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", metavar="FILE", help="JSON config file")
    sp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field (dotted path, JSON value)",
    )
    sp.add_argument("--output", metavar="DIR", help="output directory")
    sp.add_argument("--seed", type=int, help="PRNG seed (unsigned 64-bit)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsim",
        description="Radical-pair spin dynamics: exact solvers and gate-level circuit emulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("population", help="singlet population trace at one angle"))
    _add_common(sub.add_parser("yield-sweep", help="singlet yield versus field angle"))

    trotter = sub.add_parser("trotter-sweep", help="yield versus Trotter step count")
    _add_common(trotter)
    trotter.add_argument("--n-list", required=True, metavar="N1,N2,...")

    rate = sub.add_parser("rate-sweep", help="yield versus recombination rate")
    _add_common(rate)
    rate.add_argument("--k-list", required=True, metavar="K1,K2,...")

    shot = sub.add_parser("shot-sweep", help="sampling error versus shot count")
    _add_common(shot)
    shot.add_argument("--shot-list", required=True, metavar="S1,S2,...")

    fit = sub.add_parser("fit", help="rescale a noisy yield curve onto a reference")
    fit.add_argument("noisy_file")
    fit.add_argument("reference_file")
    fit.add_argument("--output", metavar="DIR", help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args.noisy_file, args.reference_file, args.output or ".")
        raw = load_config_file(args.config) if args.config else None
        cfg = resolve(
            raw,
            overrides=args.overrides,
            seed=args.seed,
            output=args.output,
        )
        if args.command == "population":
            return cmd_population(cfg)
        if args.command == "yield-sweep":
            return cmd_yield_sweep(cfg)
        if args.command == "trotter-sweep":
            return cmd_trotter_sweep(cfg, _parse_list(args.n_list, "--n-list", int))
        if args.command == "rate-sweep":
            return cmd_rate_sweep(cfg, _parse_list(args.k_list, "--k-list", float))
        if args.command == "shot-sweep":
            return cmd_shot_sweep(
                cfg, _parse_list(args.shot_list, "--shot-list", int)
            )
        raise ValueError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
