"""Tests of the benchmark itself: every workload once at tiny size with its
output checks, same-seed determinism, the tracer's hooks, and the refusal to
run without the package.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
from tcphonon import cli, output, rates  # noqa: E402

END_TO_END = {"wall_s", "evals_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "ok_ratio"}


def tiny(name, seed=3, trace=False, probes=0):
    # seconds=0 runs the fewest passes: one, or one traced plus one untraced
    return run.run(name, seed, 0.0, trace, size="tiny", probes=probes)


def failing_checks(result):
    return {name for name, row in result["checks"].items() if row["failed"]}


def test_figures_tiny_checks_pass():
    result = tiny("figures", probes=1)
    assert result["correct"] and result["failed"] == 0
    assert {"reference", "fig1-zero-brackets-sqrt(3/8)", "fig2-monotone"} <= set(result["checks"])
    assert set(result["metrics"]) == END_TO_END | {"setup_s"}
    assert result["metrics"]["setup_s"]["value"] > 0.0
    assert len(result["calibration"]["kernel_seconds"]) == result["passes"] + 1
    assert len(result["calibration"]["pass_scales"]) == result["passes"]
    assert all(scale > 0.0 for scale in result["calibration"]["pass_scales"])


def test_verify_tiny_checks_pass():
    result = tiny("verify")
    assert result["correct"], result["failures"]
    assert result["checks"]["all-checks-pass"] == {"passed": 1, "failed": 0}
    assert result["checks"]["mc-within-1%"] == {"passed": 2, "failed": 0}
    assert result["calibration"]["kernel_seconds"] == []
    assert result["calibration"]["pass_scales"] == [1.0] * result["passes"]


def test_point_queries_tiny_checks_pass():
    result = tiny("point-queries")
    assert result["attempted"] == 10
    for check in ("finite", "rates-non-negative", "oracle-1e-8"):
        assert sum(result["checks"][check].values()) == 10
    assert sum(result["checks"]["homogeneity"].values()) == 20  # both rates of each query
    assert result["correct"], result["failures"]
    assert not failing_checks(result)


def test_figure_check_catches_a_wrong_value(tmp_path):
    import workloads

    figures = workloads.Figures(3, "tiny", str(tmp_path))
    figures.prepare()
    ops = figures.run_pass(0)
    path = ops[0].output["fig1"]
    text = open(path, encoding="utf-8").read().splitlines()
    cells = text[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-8))
    text[-1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(text) + "\n")
    figures.check_pass(0, ops)
    assert not ops[0].ok
    assert figures.tally["reference"] == [3, 1]


def test_homogeneity_check_catches_a_wrong_rate():
    import workloads

    queries = workloads.PointQueries(3, "tiny", None)
    ops = queries.run_pass(0)
    d, a, me, gl, gg = ops[0].output
    ops[0].output = (d, a, me, gl, gg * (1.0 + 1e-4))
    queries.check_pass(0, ops)
    assert not ops[0].ok and all(op.ok for op in ops[1:])
    assert queries.tally["homogeneity"] == [19, 1]


@pytest.mark.parametrize("name", ["figures", "verify", "point-queries"])
def test_same_seed_same_outputs_and_call_counts(name):
    a, b = tiny(name, seed=5, trace=True), tiny(name, seed=5, trace=True)
    assert a["provenance"]["output_sha256"] == b["provenance"]["output_sha256"]
    calls = [{k: v for k, v in r["metrics"].items() if k.endswith(".calls")} for r in (a, b)]
    assert calls[0] == calls[1]
    assert any(v["value"] > 0 for v in calls[0].values())


def test_tracer_rebinds_aliases_and_restores_them():
    original = output.write_table
    assert cli.write_table is original
    with spans.Tracer() as tracer:
        assert cli.write_table is output.write_table is not original
        assert rates.quad.__wrapped__ is not None
    assert cli.write_table is output.write_table is original
    assert not tracer.absent


def test_absent_hook_is_reported_not_zero():
    tracer = spans.Tracer(hooks=spans.HOOKS + (("rates", "no_such_function"),))
    assert tracer.absent == ["rates.no_such_function"]
    metrics = tracer.layer_metrics(1)
    assert not any(k.startswith("rates.no_such_function") for k in metrics)
    assert metrics["rates.quad.calls"] == (0.0, "count")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
