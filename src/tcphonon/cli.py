"""Command-line surface: scans, figure reproduction, invariant suite.

Each subcommand accepts only the options it reads (_DEFAULTS below):

    spectrum     --lambda --cs --kmin --kmax --points --format --output
    fig1         --lambda --points --format --output
    fig2         --lambda --cs --kmin --kmax --points --tol --format --output
    rate-lambda  --lambda --cs --format --output
    rate-g       --lambda --cs --kmin --kmax --points --tol --format --output
    check        --tol --seed --format --output

Every subcommand also takes --config FILE of `key = value` lines whose keys
are the flag names (`lambda = 2`, `points = 50`).  Each line becomes the flag
`--key=value` ahead of the command line's, so one parser converts and checks
both with the same messages, and a flag overrides its key, which overrides the
default.  A flag or config key the subcommand does not read is a usage error.
The effective configuration is echoed into every output's metadata, so each
file is reproducible on its own.  Exit codes: 0 success, 1 numerical or
invariant failure, 2 usage/config error.

Omega enters only through the cubic coupling, so a rate column, Gamma
Omega^4 / Lambda^5 (rates.stored_rate), cannot depend on it.
Each rate command also writes its rate in the figure's units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, checks, rates, spectrum
from .model import PhysicalParams, params_from_physical
from .output import _write_text, write_table

_FIGURE_UNITS = {"fig1": 3.5e-4, "fig2": 4e-5}  # denominators for the dimensionless rate
_FIG2_CS = (0.35, 0.5, 0.65, 0.8, 0.95)
_UNITS_NOTE = "figure-unit columns assume Omega = Lambda"

# Every option: metadata key -> (flag and config key, type, help).  A tuple
# type lists the accepted values.
_OPTIONS = {
    "lam": ("lambda", float, "gap Lambda"),
    "cs": ("cs", str, "sound speed, or comma list where the command scans"),
    "kmin": ("kmin", float, "lower edge of the k grid"),
    "kmax": ("kmax", float, "upper edge of the k grid"),
    "points": ("points", int, "number of grid points"),
    "tol": ("tol", float, "relative quadrature tolerance / check tolerance scale"),
    "seed": ("seed", int, "Monte-Carlo seed"),
    "format": ("format", ("csv", "json"), "output format"),
    "output": ("output", str, "output path (default stdout)"),
}

# The options each subcommand reads, with their defaults; None is derived.
_OUTPUT = {"format": "csv", "output": None}
_DEFAULTS = {
    "spectrum": {"lam": 1.0, "cs": "0.5", "kmin": 0.01, "kmax": 10.0, "points": 200, **_OUTPUT},
    "fig1": {"lam": 1.0, "points": 200, **_OUTPUT},
    "fig2": {"lam": 1.0, "cs": ",".join(str(c) for c in _FIG2_CS),
             "kmin": None, "kmax": None, "points": 50, "tol": 1e-6, **_OUTPUT},
    "rate-lambda": {"lam": 1.0, "cs": "0.5", **_OUTPUT},
    "rate-g": {"lam": 1.0, "cs": "0.5", "kmin": 0.1, "kmax": 2.0, "points": 20, "tol": 1e-6,
               **_OUTPUT},
    "check": {"tol": 1.0, "seed": 0, **_OUTPUT},
}


def _config_flags(path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags, for the
    subcommand's own parser to convert and check like its command line."""
    flags, keys = [], {flag for flag, _, _ in _OPTIONS.values()}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            if key not in keys:  # also config, help, version and abbreviations
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _parse_cs_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cs must be a comma list of numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"cs must list at least one number, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcphonon",
        description="Phonon spectrum, vertices, and decay rates of a time-crystal effective theory",
    )
    parser.add_argument("--version", action="version", version=f"tcphonon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in _COMMANDS.items():
        sp = sub.add_parser(command, help=command_help)
        for key, default in _DEFAULTS[command].items():
            flag, kind, help_ = _OPTIONS[key]
            if default is not None:
                help_ += f" (default {default})"
            how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sp.add_argument(f"--{flag}", dest=key, default=default, help=help_, **how)
        sp.add_argument("--config", help="key = value config file; keys are the flag names")
    return parser


def _validate_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if not 0.0 < cfg[key] < math.inf:
            raise ValueError(f"{_OPTIONS[key][0]} must be positive and finite, got {cfg[key]}")


def _effective(args: argparse.Namespace) -> dict:
    """The command's options, with the scales and the grid size checked
    wherever the command reads them, and the output path before anything is
    computed."""
    cfg = {key: getattr(args, key) for key in _DEFAULTS[args.command]}
    _validate_positive(cfg, *(key for key in ("lam", "points") if key in cfg))
    out = cfg["output"]
    if out not in (None, "-") and (os.path.isdir(out)
                                   or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValueError(f"output must be a file in an existing directory, got {out}")
    return cfg


def _single_cs(cfg: dict, command: str) -> float:
    values = _parse_cs_list(cfg["cs"])
    if len(values) != 1:
        raise ValueError(f"{command} takes a single --cs value")
    return values[0]


def _metadata(cfg: dict, command: str, **extra) -> dict:
    meta = {"command": command, "version": __version__}
    meta.update({k: v for k, v in cfg.items() if k != "output"})
    meta.update(extra)
    return meta


def _failure_at(cfg: dict, command: str, **point):
    """A context that re-raises a numerical failure (rates._name_failure)
    naming the command, its lambda and the grid point."""
    point = {"lambda": cfg["lam"], **point}
    where = ", ".join(f"{key}={float(value)!r}" for key, value in point.items())
    return rates._name_failure(f"{command} failed at {where}")


def _emit(cfg: dict, command: str, header: list, rows: list, figure: str | None = None) -> None:
    """Write the table, after the figure-unit column when figure is 'fig1' or
    'fig2'; a non-finite cell is a numerical failure named by its column and
    the row's first (grid) value."""
    extra = {}
    if figure is not None:
        unit = _FIGURE_UNITS[figure]
        extra = {"units_note": _UNITS_NOTE, f"{figure}_unit": unit}
        rate = header.index("rate_dimensionless")
        header = header + [f"rate_{figure}_units"]
        rows = [row + [row[rate] / unit] for row in rows]
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise RuntimeError(f"{command} gave {name}={cell} at {header[0]}={row[0]!r}")
    write_table(cfg["output"], header, rows, _metadata(cfg, command, **extra), cfg["format"])


def _grid(cfg: dict) -> np.ndarray:
    """The k grid: finite positive edges (the gapless amplitudes diverge at
    k = 0), with kmax > kmin unless the grid is the single point kmin."""
    for key in ("kmax", "kmin"):  # fig2 derives its default kmin from kmax
        if not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, got {cfg[key]}")
        if not cfg[key] > 0.0:
            raise ValueError(f"{key} must be positive: amplitudes diverge at k = 0, got {cfg[key]}")
    if not (cfg["kmax"] > cfg["kmin"] or cfg["points"] == 1 and cfg["kmax"] == cfg["kmin"]):
        raise ValueError(f"kmax must exceed kmin (or equal it when points = 1), got "
                         f"kmin={cfg['kmin']}, kmax={cfg['kmax']}, points={cfg['points']}")
    return np.linspace(cfg["kmin"], cfg["kmax"], cfg["points"])


def cmd_spectrum(cfg: dict) -> int:
    cfg["cs"] = _single_cs(cfg, "spectrum")
    _validate_positive(cfg, "cs")
    m = params_from_physical(PhysicalParams(cfg["lam"], cfg["cs"]))
    rows = []
    for k in _grid(cfg):
        with _failure_at(cfg, "spectrum", k=k):
            d = spectrum.dispersion(m, float(k))
            a = spectrum.amplitudes(m, float(k))
        rows.append([float(k), d.omega_G, d.omega_L,
                     abs(a.pi_G), abs(a.pi_L), abs(a.sigma_G), abs(a.sigma_L)])
    _emit(cfg, "spectrum",
          ["k", "omega_G", "omega_L", "abs_pi_G", "abs_pi_L", "abs_sigma_G", "abs_sigma_L"], rows)
    return 0


def cmd_fig1(cfg: dict) -> int:
    grid = np.linspace(0.05, 0.99, cfg["points"])
    with _failure_at(cfg, "fig1"):
        curve = rates.scan_lambda_rate(grid, Lambda=cfg["lam"])
    rows = [[float(c), r] for c, r in zip(grid, curve)]
    _emit(cfg, "fig1", ["cs", "rate_dimensionless"], rows, "fig1")
    return 0


def cmd_fig2(cfg: dict) -> int:
    _validate_positive(cfg, "tol")
    cs_list = _parse_cs_list(cfg["cs"])
    if cfg["kmax"] is None:
        cfg["kmax"] = 2.0 * cfg["lam"]
    if cfg["kmin"] is None:
        cfg["kmin"] = cfg["kmax"] / cfg["points"]
    grid = _grid(cfg)
    with _failure_at(cfg, "fig2"):
        curves = rates.scan_g_rate(cs_list, grid, Lambda=cfg["lam"], rel_tol=cfg["tol"])
    rows = [[float(k), cs, r] for cs, curve in zip(cs_list, curves) for k, r in zip(grid, curve)]
    _emit(cfg, "fig2", ["k", "cs", "rate_dimensionless"], rows, "fig2")
    return 0


def cmd_rate_lambda(cfg: dict) -> int:
    params = [PhysicalParams(cfg["lam"], cs) for cs in _parse_cs_list(cfg["cs"])]
    rows = []
    for p in params:
        with _failure_at(cfg, "rate-lambda", cs=p.cs):
            res = rates.stored_rate(p.cs, p.Lambda)
            kstar = rates.lambda_threshold_momentum(p)
        rows.append([p.cs, kstar, res.rate, res.estimated_error])
    _emit(cfg, "rate-lambda", ["cs", "kstar", "rate_dimensionless", "estimated_error"], rows, "fig1")
    return 0


def cmd_rate_g(cfg: dict) -> int:
    _validate_positive(cfg, "tol")
    cs = _single_cs(cfg, "rate-g")
    p = PhysicalParams(cfg["lam"], cs)
    rows = []
    for k in _grid(cfg):
        with _failure_at(cfg, "rate-g", k=k):
            res = rates.stored_rate(cs, p.Lambda, float(k), rel_tol=cfg["tol"])
        rows.append([float(k), cs, res.rate, res.kinematically_open, res.estimated_error])
    _emit(cfg, "rate-g",
          ["k", "cs", "rate_dimensionless", "kinematically_open", "estimated_error"], rows, "fig2")
    return 0


def cmd_check(cfg: dict) -> int:
    if not 0.0 <= cfg["tol"] < math.inf:  # 0 is allowed: it shows the failure path
        raise ValueError(f"tol must be non-negative and finite, got {cfg['tol']}")
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg['seed']}")
    results = checks.run_all(tol_scale=cfg["tol"], seed=cfg["seed"])
    ok = all(r.passed for r in results)
    if cfg["format"] == "json":
        doc = {
            "metadata": {"command": "check", "seed": cfg["seed"], "tol_scale": cfg["tol"],
                         "version": __version__},
            "passed": ok,
            "checks": [  # a check that raised has no measurement (JSON has no nan)
                {"name": r.name, "passed": r.passed, "measured": r.measured,
                 "tolerance": r.tolerance} | ({"measured": None, "error": r.error} if r.error else {})
                for r in results
            ],
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured={r.measured:.3e} "
            f"tolerance={r.tolerance:.3e}" + (f" error={r.error}" if r.error else "")
            for r in results
        ]
        lines.append(f"{'PASS' if ok else 'FAIL'} overall ({sum(r.passed for r in results)}"
                     f"/{len(results)} checks)")
        text = "\n".join(lines) + "\n"
    _write_text(cfg["output"], text)
    return 0 if ok else 1


_COMMANDS = {  # name -> (handler, help)
    "spectrum": (cmd_spectrum, "dispersion and amplitude magnitudes over a k grid"),
    "fig1": (cmd_fig1, "at-rest gapped-mode decay rate as a function of sound speed"),
    "fig2": (cmd_fig2, "gapless-mode decay rate vs k for a list of sound speeds"),
    "rate-lambda": (cmd_rate_lambda, "single at-rest gapped-mode decay rates over a cs list"),
    "rate-g": (cmd_rate_g, "gapless-mode decay rates over a k grid at one sound speed"),
    "check": (cmd_check, "run the full invariant suite"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # config flags go first, so the command line's own win
            args = parser.parse_args([args.command, *_config_flags(args.config), *argv[1:]])
        return _COMMANDS[args.command][0](_effective(args))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    except rates._NUMERICAL_FAILURES as exc:  # ahead of ValueError, which LinAlgError subclasses
        print(f"tcphonon: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"tcphonon: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
