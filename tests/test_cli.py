"""End-to-end CLI behavior: outputs, determinism, config handling, exit codes."""

import json
import math
import re
import sys

import numpy as np
import pytest

from tcphonon import cli
from tcphonon.output import format_table


def _read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_spectrum_row_count(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert len(rows) == 200  # default grid
    assert header[0] == "k"
    assert meta["cs"] == "0.5"


def test_spectrum_rejects_k_zero_grid(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--kmin", "0", "--output", str(out)]) == 2


def test_spectrum_single_cs_only(tmp_path):
    assert cli.main(["spectrum", "--cs", "0.5,0.6", "--output", str(tmp_path / "x.csv")]) == 2


def test_csv_json_value_equality(tmp_path):
    args = ["rate-g", "--points", "4", "--kmin", "0.3", "--kmax", "1.2"]
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert cli.main(args + ["--output", str(csv_path)]) == 0
    assert cli.main(args + ["--format", "json", "--output", str(json_path)]) == 0
    _, header, rows = _read_csv(csv_path)
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    for i, name in enumerate(header):
        for j, row in enumerate(rows):
            jval = doc["columns"][name][j]
            if isinstance(jval, bool):
                assert row[i] == ("true" if jval else "false")
            else:
                # 17-significant-digit CSV cells round-trip the exact double
                assert float(row[i]) == jval


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["rate-g", "--points", "4", "--kmin", "0.3", "--kmax", "1.2"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig1_zero_location_and_units(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert len(rows) == 200
    assert header == ["cs", "rate_dimensionless", "rate_fig1_units"]
    cs = [float(r[0]) for r in rows]
    rate = [float(r[1]) for r in rows]
    i0 = min(range(len(rate)), key=rate.__getitem__)
    assert abs(cs[i0] - math.sqrt(3.0 / 8.0)) < 0.005
    assert all(r >= 0.0 for r in rate)
    # figure-units column is the dimensionless rate over the quoted unit
    unit = float(meta["fig1_unit"])
    assert math.isclose(float(rows[5][2]), rate[5] / unit, rel_tol=1e-15)


def test_fig2_default_curves(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header[:3] == ["k", "cs", "rate_dimensionless"]
    assert len(rows) == 50 * 5  # points x default cs list
    by_cs = {}
    for row in rows:
        by_cs.setdefault(row[1], []).append(float(row[2]))
    assert len(by_cs) == 5
    for rates in by_cs.values():
        assert rates[0] < 1e-8  # long-wavelength suppression at the first grid point
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_lambda_rows_and_threshold_column(tmp_path):
    out = tmp_path / "rl.csv"
    assert cli.main(["rate-lambda", "--cs", "0.3,0.5,1.0", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header[:3] == ["cs", "kstar", "rate_dimensionless"]
    assert len(rows) == 3
    assert math.isclose(float(rows[1][1]), 0.7587449567759899, rel_tol=1e-9)
    assert float(rows[2][2]) == 0.0  # Lorentz point


@pytest.mark.parametrize("lam", ["1e-100", "1e-80", "1e80"])
def test_rate_lambda_prints_kstar_at_extreme_lambda(tmp_path, lam):
    # the threshold was solved at the caller's Lambda: it missed its residual
    # at 1e-80 and 1e-100 and gave kstar=inf at 1e80, exiting 1, though the
    # stored rate is representable at all three
    out = tmp_path / "rl.json"
    assert cli.main(["rate-lambda", "--lambda", lam, "--format", "json", "--output", str(out)]) == 0
    columns = json.loads(out.read_text(encoding="utf-8"))["columns"]
    assert columns["kstar"] == [float(lam) * 0.7587449567759899]
    assert columns["rate_dimensionless"][0] > 0.0


@pytest.mark.parametrize("argv", [
    ["rate-lambda", "--lambda", "1e-100"],
    ["rate-g", "--lambda", "1e-100", "--kmin", "1e-100", "--kmax", "2e-100", "--points", "2"],
], ids=["rate-lambda", "rate-g"])
def test_error_column_stays_a_normal_double(tmp_path, argv):
    # these wrote subnormal errors with lost digits (7.2e-317; 2.6e-314 and
    # 4.1e-311) beside normal rates
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
    errors = json.loads(out.read_text(encoding="utf-8"))["columns"]["estimated_error"]
    assert len(errors) == (1 if argv[0] == "rate-lambda" else 2)
    assert all(e >= sys.float_info.min for e in errors), errors


def test_rate_lambda_tiny_lambda_prints_nonzero_rate(tmp_path):
    # Gamma / Lambda^5 = Lambda^3 Gamma(Lambda = 1) = 7.22e-96 at Lambda = 1e-30,
    # while the unscaled k*^2 |M|^2 ~ Lambda^11 underflows to 0; at 1e-45 the
    # rate itself underflows (Lambda^8 < 1e-308), so the column must not pass
    # through it
    for lam, expected in (("1e-30", 7.2210709201256424e-96), ("1e-45", 7.22107092012567e-141)):
        out = tmp_path / "rl.csv"
        assert cli.main(["rate-lambda", "--lambda", lam, "--output", str(out)]) == 0
        _, header, rows = _read_csv(out)
        rate = float(rows[0][header.index("rate_dimensionless")])
        assert math.isclose(rate, expected, rel_tol=1e-13)
    # the same for G -> 2G at k = Lambda and 2 Lambda, which printed 0: its
    # unscaled |M|^2 ~ Lambda^9 underflowed
    for lam, expected in (
        ("1e-36", (2.0571429375152692e-114, 2.5584187719919424e-113)),
        ("1e-45", (2.057142937515269e-141, 2.5584187719919421e-140)),
    ):
        out = tmp_path / "rg.csv"
        kmax = repr(2.0 * float(lam))
        assert cli.main(["rate-g", "--lambda", lam, "--kmin", lam, "--kmax", kmax,
                         "--points", "2", "--output", str(out)]) == 0
        _, header, rows = _read_csv(out)
        rates = [float(row[header.index("rate_dimensionless")]) for row in rows]
        for rate, want in zip(rates, expected):
            assert math.isclose(rate, want, rel_tol=1e-13)


def test_rate_g_open_flag_column(tmp_path):
    out = tmp_path / "rg.csv"
    assert cli.main(["rate-g", "--points", "3", "--kmin", "0.5", "--kmax", "1.5",
                     "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    i = header.index("kinematically_open")
    assert all(row[i] == "true" for row in rows)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# comment line\npoints = 5\nkmax = 1.0\n", encoding="utf-8")
    out = tmp_path / "rg.csv"
    assert cli.main(["rate-g", "--config", str(cfg), "--points", "3",
                     "--output", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert len(rows) == 3  # flag beats config
    assert float(meta["kmax"]) == 1.0  # config beats default
    assert float(meta["kmin"]) == 0.1  # default survives


def test_config_rejects_unknown_key(tmp_path, capsys):
    # omega and figure-units were keys once; no command reads them now
    cfg = tmp_path / "bad.cfg"
    for key, value in (("velocity", "3"), ("omega", "1"), ("figure-units", "false")):
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        for command in sorted(_READS):
            assert cli.main([command, "--config", str(cfg)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("points = many\n", encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["spectrum", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_check_passes_and_reports(tmp_path):
    out = tmp_path / "check.json"
    assert cli.main(["check", "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert len(doc["checks"]) >= 20
    for entry in doc["checks"]:
        assert set(entry) == {"name", "passed", "measured", "tolerance"}
        assert entry["passed"] is True


def test_check_reports_a_raising_check_as_failed_with_its_error(monkeypatch, capsys, tmp_path):
    # a raising oracle used to abort check: stderr named the check and the
    # seed, and none of the 25 results was written
    message = "samples=16 gives 1 cells per replicate, too few for a spread"
    oracle = cli.rates.mc_rate_oracle

    def fail_seeded(*args, **kwargs):  # rates.mc-agreement's calls; omega-scaling's has no seed
        if "seed" in kwargs:
            raise RuntimeError(message)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(cli.rates, "mc_rate_oracle", fail_seeded)
    out = tmp_path / "check.json"
    assert cli.main(["check", "--seed", "15"]) == 1
    assert cli.main(["check", "--seed", "15", "--format", "json", "--output", str(out)]) == 1
    text, err = capsys.readouterr()
    assert err == ""
    lines = text.splitlines()
    assert len(lines) == 26 and lines[-1] == "FAIL overall (24/25 checks)"
    assert [line for line in lines[:-1] if not line.startswith("PASS ")] == [
        f"FAIL rates.mc-agreement: measured=nan tolerance=1.000e-02 error=RuntimeError: {message}"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is False and len(doc["checks"]) == 25
    assert [line[5:].partition(":")[0] for line in lines[:-1]] == [e["name"] for e in doc["checks"]]
    assert [e for e in doc["checks"] if "error" in e] == [
        {"name": "rates.mc-agreement", "passed": False, "measured": None, "tolerance": 1e-2,
         "error": f"RuntimeError: {message}"}]


def test_check_fails_with_zero_tolerance(tmp_path, capsys):
    assert cli.main(["check", "--tol", "0"]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "overall" in text


def test_stdout_output(capsys):
    assert cli.main(["rate-lambda", "--cs", "0.5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("#")
    assert "cs,kstar,rate_dimensionless" in text


def test_dash_output_is_stdout(capsys):
    assert cli.main(["spectrum", "--points", "3", "--output", "-"]) == 0
    assert "omega_G" in capsys.readouterr().out


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "tcphonon" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()  # swallow argparse noise


@pytest.mark.parametrize("argv", [
    pytest.param(["rate-lambda", "--lambda", "inf"], id="--lambda"),
    # --tol used to pass through: exit 0 for fig2/rate-g, 0/25 FAIL for check
    pytest.param(["fig2", "--tol", "nan"], id="fig2--tol-nan"),
    pytest.param(["rate-g", "--tol", "0"], id="rate-g--tol-0"),
    pytest.param(["rate-g", "--tol", "-1"], id="rate-g--tol--1"),
    pytest.param(["check", "--tol", "nan"], id="check--tol-nan"),
    pytest.param(["check", "--tol", "-1"], id="check--tol--1"),
    # fig1 used to exit 0 with an empty table and numpy's message for -1;
    # fig2 divided kmax by points first and exited 1
    pytest.param(["fig1", "--points", "0"], id="fig1--points-0"),
    pytest.param(["fig1", "--points", "-1"], id="fig1--points--1"),
    pytest.param(["fig2", "--points", "0"], id="fig2--points-0"),
])
def test_non_finite_parameter_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert argv[1][2:] in err and "finite" in err


def test_negative_seed_exits_2_naming_seed(capsys):
    # used to exit 2 with numpy's "expected non-negative integer"
    assert cli.main(["check", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "fig2", "rate-g"])
def test_non_finite_k_grid_exits_2(command, capsys):
    # fig2 used to report this as a numerical failure (exit 1)
    assert cli.main([command, "--kmax", "inf"]) == 2
    assert "kmax must be finite" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("computed before the inputs were checked")


@pytest.mark.parametrize("argv, flag", [
    # rate-g and spectrum used to exit 0 with three identical rows, and fig2
    # exited 2 naming neither flag
    (["rate-g", "--kmin", "1", "--kmax", "1", "--points", "3"], "kmax"),
    (["spectrum", "--kmin", "1", "--kmax", "1", "--points", "3"], "kmax"),
    (["fig2", "--kmin", "1", "--kmax", "1", "--points", "3"], "kmax"),
    (["rate-g", "--kmin", "0"], "kmin"),
    (["fig2", "--kmax", "-1"], "kmax"),
    # fig2 used to exit 1 as a numerical failure, after computing the
    # cs = 0.5 curve for 0.5,2
    (["fig2", "--cs", "1.5"], "cs"),
    (["fig2", "--cs", "0"], "cs"),
    (["fig2", "--cs", "nan"], "cs"),
    (["fig2", "--cs", "0.5,2"], "cs"),
    (["rate-lambda", "--cs", "0.5,2"], "cs"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_bad_grid_or_cs_exits_2_before_computing(argv, flag, tmp_path, monkeypatch, capsys):
    for module, name in ((cli.rates, "rate_g_to_2g"), (cli.rates, "rate_lambda_to_2g"),
                         (cli.spectrum, "dispersion")):
        monkeypatch.setattr(module, name, _never)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{flag} must" in err, err
    assert not out.exists()


def _eigensolve_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("x")


@pytest.mark.parametrize("argv, named, fault", [(*case, None) for case in [
    # a non-finite cell used to be written out with exit 0
    (["spectrum", "--kmax", "1e200", "--points", "3"], ["omega_G", "k=5e+199"]),
    # these used to print only "(34, 'Numerical result out of range')" or
    # "float division by zero"
    (["rate-lambda", "--lambda", "1e200"], ["rate-lambda", "lambda=1e+200"]),
    (["spectrum", "--kmin", "1e-200", "--kmax", "1e-199"], ["spectrum", "k=1e-200"]),
    # k^2 is subnormal here: |pi_L| came out 6.6e-4 off its k -> 0 value, exit 0
    (["spectrum", "--kmin", "1e-160", "--kmax", "1e-159", "--points", "2"],
     ["spectrum", "omega_G", "k=1e-160"]),
    # past k/Lambda ~ 1.2e77 this used to print kinematically_open = false
    # and rate 0 with exit 0
    (["rate-g", "--kmin", "1e100", "--kmax", "1e101", "--points", "2"], ["rate-g", "k=1e+100"]),
    # the window's lower end squared is subnormal: this printed only
    # "float division by zero"
    (["rate-g", "--kmin", "1e-160", "--kmax", "1e-159", "--points", "2"],
     ["rate-g", "k=1e-160", "leave the double range"]),
    # the stored rate Lambda^3 Gamma(Lambda = 1) is below the normal doubles:
    # these four printed rate_dimensionless 0 with exit 0
    (["rate-lambda", "--lambda", "1e-110"], ["rate-lambda", "lambda=1e-110", "underflows"]),
    (["fig1", "--lambda", "1e-110", "--points", "2"], ["fig1", "lambda=1e-110", "underflows"]),
    (["rate-g", "--lambda", "1e-110", "--kmin", "1e-111", "--kmax", "2e-110", "--points", "2"],
     ["rate-g", "lambda=1e-110", "underflows"]),
    (["fig2", "--lambda", "1e-110", "--points", "2"], ["fig2", "lambda=1e-110", "underflows"]),
    # Lambda^3 overflows: this ended on the bare errno text
    (["rate-lambda", "--lambda", "1e103"], ["rate-lambda", "lambda=1e+103", "Lambda^3 overflows"]),
    # the rate at Lambda = 1 is below the normal doubles: these printed
    # rate_dimensionless 0 with exit 0
    (["rate-lambda", "--cs", "1e-200"], ["rate-lambda", "cs=1e-200", "underflows"]),
    (["rate-g", "--kmin", "1e-60", "--kmax", "1e-59", "--points", "2"],
     ["rate-g", "k=1e-60", "underflows"]),
]] + [
    # a failed eigensolve (a ValueError) reached main unnamed: no k
    (["rate-g", "--points", "1", "--kmin", "1", "--kmax", "1"], ["rate-g", "k=1.0", ": x"],
     "rate_g_to_2g"),
], ids=["spectrum-huge-k", "rate-lambda-huge-lambda", "spectrum-tiny-k", "spectrum-subnormal-k",
        "rate-g-huge-k", "rate-g-tiny-k", "rate-lambda-tiny-lambda", "fig1-tiny-lambda",
        "rate-g-tiny-lambda", "fig2-tiny-lambda", "rate-lambda-lambda-cubed-overflows",
        "rate-lambda-tiny-cs", "rate-g-rate-underflows", "rate-g-eigensolve-fails"])
def test_numerical_failure_exits_1_and_names_point(argv, named, fault, tmp_path, monkeypatch,
                                                   capsys):
    if fault is not None:
        monkeypatch.setattr(cli.rates, fault, _eigensolve_fails)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Numerical result out of range" not in err, err
    assert all(word in err for word in named), err
    assert not out.exists()


@pytest.mark.parametrize("missing", [True, False], ids=["missing-directory", "directory"])
def test_unwritable_output_exits_2_before_computing(missing, tmp_path, monkeypatch, capsys):
    # fig2 used to compute for about 3 s, then exit 2 on the failed open
    for name in ("scan_g_rate", "stored_rate"):
        monkeypatch.setattr(cli.rates, name, _never)
    out = tmp_path / "missing" / "f.csv" if missing else tmp_path
    assert cli.main(["fig2", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err, err
    assert list(tmp_path.iterdir()) == []


def test_solver_failure_exits_1_not_as_a_config_error(monkeypatch, capsys):
    # np.linalg.LinAlgError subclasses ValueError: it used to be reported as
    # "config error" with exit 2
    def fail(cfg):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (fail, cli._COMMANDS["spectrum"][1]))
    assert cli.main(["spectrum"]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: eigenvalues did not converge" in err and "config error" not in err


def test_format_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        format_table(["a"], [[1.0]], {}, "xml")


# The options each subcommand reads; every subcommand also takes --config.
_READS = {
    "spectrum": {"lambda", "cs", "kmin", "kmax", "points", "format", "output"},
    "fig1": {"lambda", "points", "format", "output"},
    "fig2": {"lambda", "cs", "kmin", "kmax", "points", "tol", "format", "output"},
    "rate-lambda": {"lambda", "cs", "format", "output"},
    "rate-g": {"lambda", "cs", "kmin", "kmax", "points", "tol", "format", "output"},
    "check": {"tol", "seed", "format", "output"},
}
_ALL_FLAGS = sorted(set().union(*_READS.values()))
# flags no command has: Omega changes no printed number, and the figure-unit
# column is always written
_GONE = ("omega", "figure-units", "no-figure-units")


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in _READS.items() for flag in _ALL_FLAGS
    if flag not in reads
] + [(command, flag) for command in _READS for flag in _GONE])
def test_unread_flag_exits_2(command, flag, capsys):
    argv = [command, f"--{flag}"] + ([] if flag.endswith("figure-units") else ["1"])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and f"--{flag}" in err


@pytest.mark.parametrize("command", sorted(_READS))
def test_help_lists_exactly_the_read_options(command, capsys):
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == _READS[command] | {"config", "help"}


def test_config_lambda_key_takes_effect(tmp_path):
    # the config reader used to store this key where no command read it
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("lambda = 2\n", encoding="utf-8")
    by_config, by_flag, default = (tmp_path / name for name in ("c.csv", "f.csv", "d.csv"))
    assert cli.main(["rate-lambda", "--config", str(cfg), "--output", str(by_config)]) == 0
    assert cli.main(["rate-lambda", "--lambda", "2", "--output", str(by_flag)]) == 0
    assert cli.main(["rate-lambda", "--output", str(default)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes() != default.read_bytes()
    assert _read_csv(by_config)[0]["lam"] == "2"


@pytest.mark.parametrize("command, key", [
    ("spectrum", "seed"), ("fig1", "cs"), ("rate-lambda", "tol"),
    ("check", "lambda"), ("check", "points"),
])
def test_config_key_not_read_exits_2(command, key, tmp_path, capsys):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(f"{key} = 1\n", encoding="utf-8")
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --{key}=1" in err  # the flag's own usage error


# Every option each subcommand reads but output, at a cheap value away from
# its default
_AWAY_FROM_DEFAULTS = {
    "spectrum": {"lambda": "2", "cs": "0.3", "kmin": "0.5", "kmax": "1.5", "points": "2",
                 "format": "json"},
    "fig1": {"lambda": "2", "points": "2", "format": "json"},
    "fig2": {"lambda": "2", "cs": "0.3,0.6", "kmin": "0.5", "kmax": "1.5", "points": "2",
             "tol": "1e-4", "format": "json"},
    "rate-lambda": {"lambda": "2", "cs": "0.3,0.6", "format": "json"},
    "rate-g": {"lambda": "2", "cs": "0.3", "kmin": "0.5", "kmax": "1.5", "points": "2",
               "tol": "1e-4", "format": "json"},
    "check": {"tol": "2", "seed": "1", "format": "json"},
}


@pytest.mark.parametrize("command", sorted(_READS))
def test_config_file_gives_what_the_flags_give(command, tmp_path):
    options = _AWAY_FROM_DEFAULTS[command]
    assert set(options) == _READS[command] - {"output"}
    cfg = tmp_path / "all.cfg"
    lines = [f"{key} = {value}\n" for key, value in options.items()]
    cfg.write_text("".join(lines), encoding="utf-8")

    def run(argv, flags=None):
        out = tmp_path / "out"
        flags = [arg for key, value in (flags or {}).items() for arg in (f"--{key}", value)]
        assert cli.main([command, *argv, *flags, "--output", str(out)]) == 0
        return out.read_bytes()

    assert run(["--config", str(cfg)]) == run([], options)
    if command != "check":  # a flag after --config beats its key; check runs one pair only
        assert run(["--config", str(cfg), "--lambda", "3"]) == run([], {**options, "lambda": "3"})
