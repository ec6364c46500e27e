"""Time the Monte-Carlo oracle and the G -> 2G layers against a baseline revision.

    python tools/bench_mc_oracle.py --baseline REV [--repeats 5] [--output BENCH_mc_oracle.json]

The baseline's src/tcphonon is taken from git (git archive REV) and imported
next to the working tree's as a second package, so both run in one process;
each repeat times the two in alternating order.  It records, for each side:

- seconds per 1e6 samples of mc_rate_oracle at the ten points of
  tests/test_acceptance.py::test_quadrature_matches_mc_oracle, at that
  test's seed and sample counts (the verify point cs = 0.5, k = 1 is one of them);
- that test's body, the quadrature and oracle rates at the ten points, as one time;
- one pass of the benchmark's verify workload: `tcphonon check` at its defaults,
  then both oracles at the verify point;
- the tracemalloc peak of one oracle call at 2e5 and 2e6 samples (taken once,
  untimed);
- the relative change of each oracle rate and estimated_error at the ten points,
  and on each side each oracle's deviation and error relative to the quadrature;
- microseconds per call of the G -> 2G layers at Lambda = Omega = 1:
  spectrum._omega_g at cs = 0.5, k = 0.7; dispersion + amplitudes there;
  rate_g_to_2g at cs = 0.5, k = 1; and scan_g_rate over the default fig2
  grid (its five sound speeds at 50 momenta).

Timings are reported as median and quartiles over the repeats, with the
change's median over the baseline's.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import tcphonon  # noqa: E402  (the working tree's package)

# tests/test_acceptance.py: _MC_LAMBDA_CS, _MC_G_POINTS and their seed and samples
LAMBDA_CS = (0.3, 0.45, 0.5, 0.75, 0.9)
G_POINTS = ((0.35, 1.5), (0.5, 1.0), (0.5, 2.0), (0.65, 1.2), (0.8, 1.6))
SEED, SAMPLES = 7, {"lambda-2g": 2_000_000, "g-2g": 8_000_000}
VERIFY_POINT = (0.5, 1.0)  # perfbench/workloads.py: MC_POINT's cs and MC_K
FIG2_CS = (0.35, 0.5, 0.65, 0.8, 0.95)  # `tcphonon fig2` defaults at Lambda = 1
FIG2_GRID = np.linspace(2.0 / 50, 2.0, 50)


def load_baseline(rev: str, workdir: str):
    """The package tcphonon at git revision rev, imported as tcphonon_baseline."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/tcphonon"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(workdir, filter="data")
    path = os.path.join(workdir, "src", "tcphonon")
    spec = importlib.util.spec_from_file_location(
        "tcphonon_baseline", os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    import tcphonon_baseline.cli  # noqa: F401  (not imported by the package itself)
    return module


def points():
    """(process, cs, k) of the ten acceptance points."""
    return [("lambda-2g", cs, None) for cs in LAMBDA_CS] + [("g-2g", cs, k) for cs, k in G_POINTS]


def acceptance_body(pkg) -> tuple[float, dict, dict]:
    """The acceptance test's loop -> (its seconds, oracle seconds per point,
    (oracle result, quadrature rate) per point)."""
    seconds, results = {}, {}
    t0 = time.perf_counter()
    for process, cs, k in points():
        p = pkg.PhysicalParams(1.0, cs, 1.0)
        quad = (pkg.rate_lambda_to_2g(p) if k is None else pkg.rate_g_to_2g(p, k)).rate
        t1 = time.perf_counter()
        mc = pkg.mc_rate_oracle(p, process, k=k, seed=SEED, samples=SAMPLES[process])
        seconds[label(process, cs, k)] = time.perf_counter() - t1
        results[label(process, cs, k)] = mc, quad
    return time.perf_counter() - t0, seconds, results


def verify_pass(pkg, workdir: str) -> float:
    """Seconds of one verify pass; a failing check raises."""
    t0 = time.perf_counter()
    code = pkg.cli.main(["check", "--format", "json", "--output", os.path.join(workdir, "check.json")])
    p = pkg.PhysicalParams(1.0, VERIFY_POINT[0], 1.0)
    for process, samples in SAMPLES.items():
        k = VERIFY_POINT[1] if process == "g-2g" else None
        pkg.mc_rate_oracle(p, process, k=k, seed=SEED, samples=samples)
    if code != 0:
        raise RuntimeError(f"tcphonon check exited {code}")
    return time.perf_counter() - t0


def traced_peaks(pkg) -> dict:
    """tracemalloc peak in MB of one oracle call, by process and sample count."""
    p = pkg.PhysicalParams(1.0, VERIFY_POINT[0], 1.0)
    peaks = {}
    for process in SAMPLES:
        for samples in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                k = VERIFY_POINT[1] if process == "g-2g" else None
                pkg.mc_rate_oracle(p, process, k=k, seed=2, samples=samples)
                peaks[f"{process} samples={samples}"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
            finally:
                tracemalloc.stop()
    return peaks


def per_call(pkg) -> dict:
    """Microseconds per call of each G -> 2G layer, each over a fixed number of calls."""
    p = pkg.PhysicalParams(1.0, 0.5, 1.0)
    m = pkg.params_from_physical(p)

    def spectrum_pair():
        pkg.dispersion(m, 0.7)
        pkg.amplitudes(m, 0.7)

    layers = {
        "_omega_g cs=0.5 k=0.7": (lambda: pkg.spectrum._omega_g(m, 0.7), 20_000),
        "dispersion + amplitudes cs=0.5 k=0.7": (spectrum_pair, 5_000),
        "rate_g_to_2g cs=0.5 k=1": (lambda: pkg.rate_g_to_2g(p, 1.0), 10),
        "scan_g_rate fig2 grid": (lambda: pkg.scan_g_rate(FIG2_CS, FIG2_GRID), 1),
    }
    out = {}
    for name, (call, calls) in layers.items():
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        out[name] = (time.perf_counter() - t0) / calls * 1e6
    return out


def label(process: str, cs: float, k: float | None) -> str:
    return f"{process} cs={cs}" + ("" if k is None else f" k={k}")


def summary(baseline: list[float], change: list[float]) -> dict:
    def quartiles(xs):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

    return {"baseline": quartiles(baseline), "change": quartiles(change),
            "change_over_baseline": round(statistics.median(change) / statistics.median(baseline), 3)}


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "logical_cpus": os.cpu_count(), "system": platform.system(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default=os.path.join(ROOT, "BENCH_mc_oracle.json"))
    args = parser.parse_args(argv)

    import tcphonon.cli  # noqa: F401
    with tempfile.TemporaryDirectory() as workdir:
        sides = {"baseline": load_baseline(args.baseline, workdir), "change": tcphonon}
        runs = {side: {"test": [], "verify": [], "points": {}, "layers": {}} for side in sides}
        results = {}
        for rep in range(args.repeats):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for side in order:
                test_s, per_point, results[side] = acceptance_body(sides[side])
                runs[side]["test"].append(test_s)
                for name, s in per_point.items():
                    runs[side]["points"].setdefault(name, []).append(s)
            for side in order:
                runs[side]["verify"].append(verify_pass(sides[side], workdir))
            for side in order:
                for name, us in per_call(sides[side]).items():
                    runs[side]["layers"].setdefault(name, []).append(us)
            print(f"repeat {rep + 1}/{args.repeats}: " + ", ".join(
                f"{side} test {runs[side]['test'][-1]:.2f} s verify {runs[side]['verify'][-1]:.2f} s"
                for side in order), file=sys.stderr)
        peaks = {side: traced_peaks(pkg) for side, pkg in sides.items()}

    per_1e6 = {}
    for process, cs, k in points():
        name = label(process, cs, k)
        scale = 1e6 / SAMPLES[process]
        per_1e6[name] = summary(*([s * scale for s in runs[side]["points"][name]] for side in sides))

    def relative(name, field):
        base, change = (getattr(results[side][name][0], field) for side in sides)
        return float(f"{(change - base) / base:.3g}")

    def against_quadrature(side, name):
        mc, quad = results[side][name]
        return {"deviation": float(f"{(mc.rate - quad) / quad:.3g}"),
                "estimated_error": float(f"{mc.estimated_error / quad:.3g}")}

    moved = {name: {field: relative(name, field) for field in ("rate", "estimated_error")}
             for name in results["change"]}
    accuracy = {name: {side: against_quadrature(side, name) for side in sides}
                for name in results["change"]}
    doc = {
        "what": "mc_rate_oracle and the G -> 2G layers of the working tree against a baseline "
                "revision, in one process",
        "command": f"python tools/bench_mc_oracle.py --baseline {args.baseline} --repeats {args.repeats}",
        "baseline": subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", args.baseline],
                                   check=True, capture_output=True, text=True).stdout.strip(),
        "host": host(),
        "repeats": args.repeats,
        "order": "sides alternate which runs first from one repeat to the next",
        "seconds_per_1e6_samples": {
            "note": f"seed {SEED}, {SAMPLES['lambda-2g']} lambda-2g and {SAMPLES['g-2g']} g-2g samples "
                    f"per call; the verify point is cs={VERIFY_POINT[0]} (k={VERIFY_POINT[1]})",
            **per_1e6,
        },
        "test_quadrature_matches_mc_oracle_s": summary(runs["baseline"]["test"], runs["change"]["test"]),
        "verify_pass_s": summary(runs["baseline"]["verify"], runs["change"]["verify"]),
        "traced_peak_mb_per_call": {"note": f"cs={VERIFY_POINT[0]}, k={VERIFY_POINT[1]}, seed 2", **peaks},
        "relative_change_of_oracle": {"note": "(change - baseline) / baseline at the ten points",
                                      **moved},
        "oracle_against_quadrature": {"note": "(mc - quad) / quad and estimated_error / quad at "
                                              "the ten points, on each side", **accuracy},
        "per_call_us": {
            "note": "Lambda = Omega = 1; scan_g_rate is 250 rates (fig2's defaults)",
            **{name: summary(*(runs[side]["layers"][name] for side in sides))
               for name in runs["change"]["layers"]},
        },
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
