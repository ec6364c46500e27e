"""The paired A/B recorder tools/bench_ab.py: verdicts, run parsing, trees.

No benchmark process is started here; the recorder's end-to-end use is
`python tools/bench_ab.py --baseline REV`.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

BASE = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, interquartile range 0.045
WIDE = [1.0, 2.0] * 5  # median 1.5, interquartile range 1.0: wider than 0.25 x 1.5
BETTER = pytest.mark.parametrize("better", ["lower", "higher"], ids=["wall_s", "evals_per_s"])


def _better(x, factor, better):
    """x made better (factor > 1) or worse (factor < 1) by factor."""
    return x / factor if better == "lower" else x * factor


def _verdict(base, change, better):
    return bench_ab.verdict(base, change, better, 0.25)


@BETTER
@pytest.mark.parametrize("wins, word", [(9, "gain"), (8, "same")])
def test_gain_needs_nine_of_ten_pairs(better, wins, word):
    # the change is 10% better in `wins` pairs and 1% worse in the rest: the
    # median gap, about 0.1, is past the baseline's interquartile range
    change = [_better(x, 1.1 if i < wins else 1 / 1.01, better) for i, x in enumerate(BASE)]
    rec = _verdict(BASE, change, better)
    assert (rec["won"], rec["verdict"]) == (wins, word)
    assert rec["baseline"]["values"] == BASE and rec["change"]["values"] == change


@BETTER
def test_gain_needs_the_median_gap_past_the_interquartile_range(better):
    # all ten pairs won, but by 1% of the median: inside the range 0.045
    change = [_better(x, 1.01, better) for x in BASE]
    rec = _verdict(BASE, change, better)
    assert (rec["won"], rec["verdict"]) == (10, "same")


@BETTER
@pytest.mark.parametrize("factor, word", [(1 / 1.5, "worse"), (1 / 1.2, "same"), (1.0, "same")])
def test_worse_is_a_median_past_the_bound(better, factor, word):
    change = [_better(x, factor, better) for x in BASE]
    assert _verdict(BASE, change, better)["verdict"] == word


@BETTER
def test_a_wide_baseline_is_unresolved_unless_every_change_run_wins(better):
    assert _verdict(WIDE, WIDE, better)["verdict"] == "unresolved"
    # every change run beats every baseline run, by less than the range
    every = [0.9] * 10 if better == "lower" else [2.2] * 10
    assert _verdict(WIDE, every, better)["verdict"] == "same"


def test_quartiles_of_one_pair():
    rec = _verdict([2.0], [1.0], "lower")
    assert rec["baseline"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "values": [2.0]}
    assert (rec["won"], rec["verdict"]) == (1, "same")  # fewer than ten pairs: never a gain


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(["--baseline", "HEAD", "--pairs", "0"])
    assert exc.value.code == 2 and "--pairs must be at least 1" in capsys.readouterr().err


def _done(stdout, returncode=0):
    return subprocess.CompletedProcess([], returncode, stdout=stdout, stderr="boom")


_PROVENANCE = 'provenance {"python": "3.11"}\n'


def test_parse_returns_the_result_and_provenance_lines():
    line = {"correct": True, "attempted": 12, "failed": 0, "metrics": {}}
    assert bench_ab.parse(_done(_PROVENANCE + json.dumps(line)), "change verify seed 2") == (
        line, {"python": "3.11"})


@pytest.mark.parametrize("stdout, returncode, message", [
    (_PROVENANCE, 0, "no result line"),
    ("", 0, "no result line"),
    (_PROVENANCE + '{"correct": true}', 0, "no result line"),
    (_PROVENANCE + '{"correct": false, "attempted": 5, "failed": 2, "metrics": {}}', 0,
     "correct: False \\(2 of 5 operations failed\\)"),
    (_PROVENANCE, 2, "exit 2: boom"),
], ids=["missing", "empty", "malformed", "incorrect", "exit"])
def test_parse_refuses_a_run_the_gate_would_not_accept(stdout, returncode, message):
    with pytest.raises(SystemExit, match=f"^bench_ab: baseline point-queries seed 3: {message}"):
        bench_ab.parse(_done(stdout, returncode), "baseline point-queries seed 3")


def test_pairs_alternate_the_side_that_runs_first(monkeypatch):
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cwd, *(cmd[cmd.index(flag) + 1] for flag in ("--seed", "--seconds", "--trace"))))
        line = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0 if cwd == "b" else 0.5}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=_PROVENANCE + json.dumps(line), stderr="")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    bench = {"command": ["python3", "perfbench/run.py"], "run_seconds": 35,
             "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    rec = bench_ab.measure(bench, {"baseline": "b", "change": "c"}, "verify", 2)
    assert calls == [("b", "1", "35", "0"), ("c", "1", "35", "0"), ("c", "2", "35", "0"),
                     ("b", "2", "35", "0"), ("b", "1", "35", "1"), ("c", "1", "35", "1")]
    assert rec["end_to_end"]["wall_s"]["won"] == 2 and rec["attempted"] == {"baseline": 3, "change": 3}
    assert rec["traced"]["change"] == {"wall_s": 0.5} and rec["provenance"]["baseline"] == {"python": "3.11"}


def _in_a_checkout() -> bool:
    try:
        bench_ab.git("rev-parse")
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _in_a_checkout(), reason="git archive needs a git checkout of the repository")
def test_trees_hold_the_package_and_the_same_benchmark(tmp_path):
    # git archive of HEAD works in a depth-1 checkout
    sha = [bench_ab.build_tree(rev, str(tmp_path / side)) for side, rev in (("a", "HEAD"), ("b", None))]
    for side in "ab":
        assert (tmp_path / side / "src" / "tcphonon" / "__init__.py").is_file()
        assert (tmp_path / side / "perfbench" / "run.py").is_file()
        assert not (tmp_path / side / "perfbench" / "out").exists()
    assert len(sha[0]) == 64 and sha[0] == sha[1]
