"""Paired A/B record of perfbench: the working tree against a git revision.

    python tools/bench_ab.py --baseline REV [--pairs 10] [--output BENCH_perfbench.json]

Both sides run the working tree's perfbench/ in a temporary tree, on src/tcphonon
from `git archive REV` or from the working tree.  For each workload of
BENCHMARK.json, pair i (seed i + 1) runs once per side, one process at a time,
the side that runs first alternating; one --trace 1 run per side adds the
per-layer metrics.  A run that exits nonzero, prints no result line or reports
correct: false stops the tool (exit 1), naming side, workload and seed.  Each
end-to-end metric gets a verdict from its `better` and `bound` (perfbench/README.md,
"End-to-end metrics"): gain if the change wins >= 9/10 of >= 10 pairs and its
median is better by more than the baseline's interquartile range (IQR); worse if
its median is worse by more than bound x the baseline's; unresolved if the
baseline's IQR exceeds bound x its median, unless every change run beats every
baseline run; same otherwise.  Exit 1 if any is worse.  Writes only --output.
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("baseline", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def build_tree(rev: str | None, dest: str) -> str:
    """dest/src/tcphonon from rev (the working tree's when None) and the working
    tree's perfbench/ without out/; returns the SHA-256 of the copied perfbench/."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    if rev is None:
        shutil.copytree(os.path.join(ROOT, "src", "tcphonon"), os.path.join(dest, "src", "tcphonon"),
                        ignore=skip)
    else:
        with tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src/tcphonon"))) as tar:
            tar.extractall(dest, filter="data")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"), ignore=skip)
    files = sorted(f for f in pathlib.Path(dest, "perfbench").rglob("*") if f.is_file())
    blob = b"".join(f"{f.relative_to(dest)}\0".encode() + f.read_bytes() for f in files)
    return hashlib.sha256(blob).hexdigest()


def parse(done: subprocess.CompletedProcess, where: str) -> tuple[dict, dict]:
    """The result and provenance lines of the run `where` ("side workload seed N");
    a SystemExit naming it if the gate would not accept the run."""
    if done.returncode != 0:
        raise SystemExit(f"bench_ab: {where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines() or [""]
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    if not isinstance(result, dict) or not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise SystemExit(f"bench_ab: {where}: no result line")
    if result["correct"] is not True:
        raise SystemExit(f"bench_ab: {where}: correct: {result['correct']} "
                         f"({result['failed']} of {result['attempted']} operations failed)")
    prov = [json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance ")]
    return result, prov[0] if prov else {}


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": q2, "q1": q1, "q3": q3, "values": xs}


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' quartiles, the pairs the change won and the verdict (module docstring)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (baseline - change) > 0: the change is better
    b, c = quartiles(base), quartiles(change)
    won = sum(sign * (x - y) > 0 for x, y in zip(base, change))
    gap, iqr, allowed = sign * (b["median"] - c["median"]), b["q3"] - b["q1"], bound * abs(b["median"])
    word = ("gain" if len(base) >= 10 and 10 * won >= 9 * len(base) and gap > iqr else
            "worse" if -gap > allowed else
            "unresolved" if iqr > allowed and not all(sign * (x - y) > 0 for x in base for y in change)
            else "same")
    return {"baseline": b, "change": c, "won": won, "verdict": word}


def measure(bench: dict, trees: dict, workload: str, pairs: int) -> dict:
    def run(side: str, seed: int, trace: int) -> tuple[dict, dict]:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=trees[side], capture_output=True, text=True)
        print(f"bench_ab: {side} {workload} seed {seed} trace {trace}", file=sys.stderr)
        return parse(done, f"{side} {workload} seed {seed}")

    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, i + 1, 0)[0])
    traced = {side: run(side, 1, 1) for side in SIDES}
    return {"attempted": {side: statistics.median(r["attempted"] for r in runs[side]) for side in SIDES},
            "end_to_end": {m["name"]: verdict(*([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                                for side in SIDES), m["better"], m["bound"])
                           for m in bench["end_to_end"]},
            "traced": {side: {k: v["value"] for k, v in traced[side][0]["metrics"].items()} for side in SIDES},
            "provenance": {side: traced[side][1] for side in SIDES}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    parser.add_argument("--output", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    bench = json.loads(pathlib.Path(ROOT, "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = git("rev-parse", "--verify", f"{args.baseline}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        sha = {side: build_tree(rev, trees[side]) for side, rev in zip(SIDES, (baseline, None))}
        workloads = {w["name"]: measure(bench, trees, w["name"], args.pairs) for w in bench["workloads"]}
    doc = {"command": f"python tools/bench_ab.py --baseline {args.baseline} --pairs {args.pairs}",
           "provenance": {"baseline": baseline, "head": git("rev-parse", "HEAD").decode().strip(),
                          "dirty": bool(git("status", "--porcelain").strip()), "perfbench_sha256": sha},
           "pairs": args.pairs, "run_seconds": bench["run_seconds"], "workloads": workloads}
    pathlib.Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    worse = [f"{w} {m}" for w, rec in workloads.items() for m, v in rec["end_to_end"].items()
             if v["verdict"] == "worse"]
    if worse:
        print(f"bench_ab: worse: {', '.join(worse)}", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
