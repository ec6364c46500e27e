"""Command-line surface: scans, figure reproduction, invariant suite.

Subcommands: spectrum, fig1, fig2, rate-lambda, rate-g, check.  Flag values
override config-file entries, which override built-in defaults; the effective
configuration is echoed into every output's metadata so each emitted file is
reproducible on its own.  Exit codes: 0 success, 1 numerical or invariant
failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, checks, rates, spectrum
from .model import PhysicalParams, params_from_physical
from .output import _write_text, write_table

_FIGURE_UNITS = {"fig1": 3.5e-4, "fig2": 4e-5}  # denominators for the dimensionless rate
_FIG2_CS = (0.35, 0.5, 0.65, 0.8, 0.95)
_UNITS_NOTE = "figure-unit columns assume Omega = Lambda"

_CONFIG_KEYS = {
    "lambda": float,
    "omega": float,
    "cs": str,
    "kmin": float,
    "kmax": float,
    "points": int,
    "tol": float,
    "seed": int,
    "format": str,
    "output": str,
    "figure-units": None,  # parsed as bool below
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"invalid boolean {text!r}")


def _read_config(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key == "figure-units":
                values["figure_units"] = _parse_bool(value)
            else:
                values[key.replace("-", "_")] = _CONFIG_KEYS[key](value)
    return values


def _parse_cs_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid --cs value {text!r}") from exc
    if not values:
        raise ValueError("empty --cs list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcphonon",
        description="Phonon spectrum, vertices, and decay rates of a time-crystal effective theory",
    )
    parser.add_argument("--version", action="version", version=f"tcphonon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--lambda", dest="lam", type=float, help="gap Lambda (default 1)")
        sp.add_argument("--omega", type=float, help="scale Omega (default 1)")
        sp.add_argument("--cs", type=str, help="sound speed, or comma list where a scan accepts one")
        sp.add_argument("--kmin", type=float, help="lower edge of the k grid")
        sp.add_argument("--kmax", type=float, help="upper edge of the k grid")
        sp.add_argument("--points", type=int, help="number of grid points")
        sp.add_argument("--tol", type=float, help="relative quadrature tolerance / check tolerance scale")
        sp.add_argument("--seed", type=int, help="Monte-Carlo seed (default 0)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        sp.add_argument("--output", type=str, help="output path (default stdout)")
        sp.add_argument("--config", type=str, help="key=value config file")
        sp.add_argument(
            "--figure-units",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="emit figure-unit rate columns (default on; assumes Omega = Lambda)",
        )
        return sp

    add("spectrum", "dispersion and amplitude magnitudes over a k grid")
    add("fig1", "at-rest gapped-mode decay rate as a function of sound speed")
    add("fig2", "gapless-mode decay rate vs k for a list of sound speeds")
    add("rate-lambda", "single at-rest gapped-mode decay rates over a cs list")
    add("rate-g", "gapless-mode decay rates over a k grid at one sound speed")
    add("check", "run the full invariant suite")
    return parser


def _effective(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags."""
    cfg = dict(defaults)
    if args.config:
        cfg.update({k: v for k, v in _read_config(args.config).items() if k in cfg})
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _validate_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if not 0.0 < cfg[key] < math.inf:
            name = "lambda" if key == "lam" else key
            raise ValueError(f"{name} must be positive and finite, got {cfg[key]}")


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


@contextmanager
def _failure_at(cfg: dict, command: str, **point):
    """Re-raise a numerical failure naming the command, its lambda and omega,
    and the grid point."""
    try:
        yield
    except (RuntimeError, ArithmeticError) as exc:
        point = {"lambda": cfg["lam"], "omega": cfg["omega"], **point}
        where = ", ".join(f"{key}={float(value)!r}" for key, value in point.items())
        raise RuntimeError(f"{command} failed at {where}: {exc}") from exc


def _emit(cfg: dict, command: str, header: list, rows: list, figure: str | None = None) -> None:
    """Write the table, after the figure-unit column when figure is 'fig1' or
    'fig2'; a non-finite cell is a numerical failure named by its column and
    the row's first (grid) value."""
    extra = {}
    if figure is not None:
        unit = _FIGURE_UNITS[figure]
        extra = {"units_note": _UNITS_NOTE, f"{figure}_unit": unit}
        if cfg["figure_units"]:
            rate = header.index("rate_dimensionless")
            header = header + [f"rate_{figure}_units"]
            rows = [row + [row[rate] / unit] for row in rows]
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise RuntimeError(f"{command} gave {name}={cell} at {header[0]}={row[0]!r}")
    write_table(cfg["output"], header, rows, _metadata(cfg, command, **extra), cfg["format"])


def _grid(cfg: dict) -> np.ndarray:
    for key in ("kmax", "kmin"):  # fig2 derives its default kmin from kmax
        if not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, got {cfg[key]}")
    if not cfg["points"] >= 1:
        raise ValueError(f"points must be >= 1, got {cfg['points']}")
    if not cfg["kmax"] >= cfg["kmin"]:
        raise ValueError("kmax must be >= kmin")
    return np.linspace(cfg["kmin"], cfg["kmax"], cfg["points"])


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "lam": 1.0, "omega": 1.0, "cs": "0.5", "kmin": 0.01, "kmax": 10.0,
        "points": 200, "format": "csv", "output": None, "figure_units": True, "seed": 0,
    })
    cfg["cs"] = _single_cs(cfg, "spectrum")
    _validate_positive(cfg, "lam", "omega", "cs")
    if not cfg["kmin"] > 0:
        raise ValueError("k grid must stay positive: amplitudes diverge at k = 0")
    m = params_from_physical(PhysicalParams(cfg["lam"], cfg["cs"], cfg["omega"]))
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


def cmd_fig1(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "lam": 1.0, "omega": 1.0, "points": 200, "format": "csv",
        "output": None, "figure_units": True, "seed": 0,
    })
    _validate_positive(cfg, "lam", "omega")
    grid = np.linspace(0.05, 0.99, cfg["points"])
    with _failure_at(cfg, "fig1"):
        curve = rates.scan_lambda_rate(grid, Lambda=cfg["lam"], Omega=cfg["omega"])
    rows = [[float(c), r] for c, r in zip(curve.values, curve.rates)]
    _emit(cfg, "fig1", ["cs", "rate_dimensionless"], rows, "fig1")
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "lam": 1.0, "omega": 1.0, "cs": ",".join(str(c) for c in _FIG2_CS),
        "kmin": None, "kmax": None, "points": 50, "tol": 1e-6,
        "format": "csv", "output": None, "figure_units": True, "seed": 0,
    })
    _validate_positive(cfg, "lam", "omega", "tol")
    cs_list = _parse_cs_list(cfg["cs"])
    if cfg["kmax"] is None:
        cfg["kmax"] = 2.0 * cfg["lam"]
    if cfg["kmin"] is None:
        cfg["kmin"] = cfg["kmax"] / cfg["points"]
    if not cfg["kmin"] > 0:
        raise ValueError("k grid must stay positive")
    grid = _grid(cfg)
    with _failure_at(cfg, "fig2"):
        curves = rates.scan_g_rate(cs_list, grid, Lambda=cfg["lam"], Omega=cfg["omega"],
                                   rel_tol=cfg["tol"])
    rows = [[k, curve.fixed["cs"], r] for curve in curves for k, r in zip(curve.values, curve.rates)]
    _emit(cfg, "fig2", ["k", "cs", "rate_dimensionless"], rows, "fig2")
    return 0


def cmd_rate_lambda(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "lam": 1.0, "omega": 1.0, "cs": "0.5", "format": "csv",
        "output": None, "figure_units": True, "seed": 0,
    })
    _validate_positive(cfg, "lam", "omega")
    with _failure_at(cfg, "rate-lambda"):
        unit = cfg["lam"] ** 5 / cfg["omega"] ** 4
    rows = []
    for cs in _parse_cs_list(cfg["cs"]):
        p = PhysicalParams(cfg["lam"], cs, cfg["omega"])
        with _failure_at(cfg, "rate-lambda", cs=cs):
            res = rates.rate_lambda_to_2g(p)
            kstar = rates.lambda_threshold_momentum(p) if cs < 1.0 else 0.5 * cfg["lam"]
        rows.append([cs, kstar, res.rate / unit, res.estimated_error / unit])
    _emit(cfg, "rate-lambda", ["cs", "kstar", "rate_dimensionless", "estimated_error"], rows, "fig1")
    return 0


def cmd_rate_g(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "lam": 1.0, "omega": 1.0, "cs": "0.5", "kmin": 0.1, "kmax": 2.0,
        "points": 20, "tol": 1e-6, "format": "csv", "output": None,
        "figure_units": True, "seed": 0,
    })
    _validate_positive(cfg, "lam", "omega", "tol")
    cs = _single_cs(cfg, "rate-g")
    if not cfg["kmin"] > 0:
        raise ValueError("k grid must stay positive")
    p = PhysicalParams(cfg["lam"], cs, cfg["omega"])
    with _failure_at(cfg, "rate-g"):
        unit = cfg["lam"] ** 5 / cfg["omega"] ** 4
    rows = []
    for k in _grid(cfg):
        with _failure_at(cfg, "rate-g", k=k):
            res = rates.rate_g_to_2g(p, float(k), rel_tol=cfg["tol"])
        rows.append([float(k), cs, res.rate / unit, res.kinematically_open,
                     res.estimated_error / unit])
    _emit(cfg, "rate-g",
          ["k", "cs", "rate_dimensionless", "kinematically_open", "estimated_error"], rows, "fig2")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _effective(args, {
        "tol": 1.0, "seed": 0, "format": "csv", "output": None,
        "lam": 1.0, "omega": 1.0, "figure_units": True,
    })
    if not 0.0 <= cfg["tol"] < math.inf:  # 0 is allowed: it shows the failure path
        raise ValueError(f"tol must be non-negative and finite, got {cfg['tol']}")
    results = checks.run_all(tol_scale=cfg["tol"], seed=cfg["seed"])
    ok = all(r.passed for r in results)
    if cfg["format"] == "json":
        doc = {
            "metadata": {"command": "check", "seed": cfg["seed"], "tol_scale": cfg["tol"],
                         "version": __version__},
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "measured": r.measured,
                 "tolerance": r.tolerance}
                for r in results
            ],
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured={r.measured:.3e} "
            f"tolerance={r.tolerance:.3e}"
            for r in results
        ]
        lines.append(f"{'PASS' if ok else 'FAIL'} overall ({sum(r.passed for r in results)}"
                     f"/{len(results)} checks)")
        text = "\n".join(lines) + "\n"
    _write_text(cfg["output"], text)
    return 0 if ok else 1


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "rate-lambda": cmd_rate_lambda,
    "rate-g": cmd_rate_g,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"tcphonon: config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"tcphonon: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
