"""The three benchmark workloads: inputs from a seed, timed passes, output checks.

Each workload drives tcphonon through its public API in this process.  A
pass is the workload's unit of repeated work; `run_pass` times every
operation of the pass and nothing else, and `check_pass` judges the outputs
afterwards, untimed.  Package functions are called through their module
(`rates.rate_g_to_2g`, never a name bound at import) so a Tracer's hooks see
every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from tcphonon import cli, model, rates, spectrum, vertex

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "figures.json")
SQ38 = math.sqrt(3.0 / 8.0)


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    seconds: float
    ok: bool = True
    output: object = None
    errors: list = field(default_factory=list)

    def fail(self, check: str, detail: str) -> None:
        self.ok = False
        self.errors.append(f"{check}: {detail}")


class Workload:
    """Common bookkeeping: per-check tallies and the hash of the first pass."""

    name = ""
    host_scaled = True  # times scaled by the host-speed loop of run.py
    pass_normalized = False  # op times scaled to the median pass (run.py)

    def __init__(self, seed: int, size: str, workdir: str | None):
        self.seed = seed
        self.size = size
        self.tally: dict[str, list[int]] = {}
        self.output_sha256 = ""

    def record(self, op: Op, check: str, passed: bool, detail: str = "") -> None:
        row = self.tally.setdefault(check, [0, 0])
        row[0 if passed else 1] += 1
        if not passed:
            op.fail(check, detail)

    def run_pass(self, index: int, tracer=None) -> list[Op]:
        raise NotImplementedError

    def check_pass(self, index: int, ops: list[Op]) -> None:
        raise NotImplementedError

    def evals(self, ops: list[Op]) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, untraced work the checks need (reference values)."""

    def _check_hash(self, ops: list[Op], digest: str) -> None:
        """Every pass of a deterministic workload must write the same bytes."""
        if not self.output_sha256:
            self.output_sha256 = digest
        same = digest == self.output_sha256
        for op in ops:
            self.record(op, "same-output-every-pass", same, "output differs from the first pass")

    @staticmethod
    def _cli(argv: list[str]) -> str:
        """cli.main in-process; a nonzero exit code is a failed operation."""
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tcphonon {argv[0]} exited with {code}")
        return argv[-1]

    def _timed(self, name: str, query: int, tracer, fn, *args, **kwargs) -> Op:
        if tracer is not None:
            tracer.query = query
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a failed operation, not a crash
            op = Op(name, time.perf_counter() - t0)
            self.record(op, "no-exception", False, f"{type(exc).__name__}: {exc}")
            return op
        op = Op(name, time.perf_counter() - t0, output=out)
        self.record(op, "no-exception", True)
        return op


# --------------------------------------------------------------------------
# figures: the paper's scans through the command line, written to files

FIGURE_COMMANDS = {
    "full": {
        "fig1": ["fig1", "--points", "200"],
        "fig2": ["fig2"],
        "rate-g": ["rate-g"],
        "rate-lambda": ["rate-lambda", "--cs", "0.2,0.4,0.6,0.8"],
    },
    "tiny": {
        "fig1": ["fig1", "--points", "20"],
        "fig2": ["fig2", "--points", "4"],
        "rate-g": ["rate-g", "--points", "3"],
        "rate-lambda": ["rate-lambda", "--cs", "0.4,0.6"],
    },
}

# (rtol, atol) per column against the committed reference.  Closed forms
# agree to 1e-10 relative and grid columns to roundoff.  Quadrature rates get
# the accuracy rates.py asks of quad: 1e-6 relative or 1e-10 Lambda^5/Omega^4
# absolute, whichever is larger (divided by 4e-5 in fig2 units).  The
# estimated_error columns are by-products of the integrator and not compared.
CLOSED, GRID = (1e-10, 0.0), (1e-15, 0.0)
QUAD, QUAD_FIG2_UNITS = (1e-6, 1e-10), (1e-6, 1e-10 / 4e-5)
FIGURE_COLUMNS = {
    "fig1": {"cs": GRID, "rate_dimensionless": CLOSED, "rate_fig1_units": CLOSED},
    "fig2": {"k": GRID, "cs": GRID, "rate_dimensionless": QUAD,
             "rate_fig2_units": QUAD_FIG2_UNITS},
    "rate-g": {"k": GRID, "cs": GRID, "rate_dimensionless": QUAD,
               "kinematically_open": (0.0, 0.0), "rate_fig2_units": QUAD_FIG2_UNITS},
    "rate-lambda": {"cs": GRID, "kstar": CLOSED, "rate_dimensionless": CLOSED,
                    "rate_fig1_units": CLOSED},
}


def read_table(path: str) -> dict[str, list]:
    """Columns of a tcphonon CSV table; 'true'/'false' become 1.0/0.0."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    cols: dict[str, list] = {name: [] for name in header}
    for row in body:
        for name, cell in zip(header, row):
            cols[name].append(1.0 if cell == "true" else 0.0 if cell == "false" else float(cell))
    return cols


class Figures(Workload):
    """fig1, fig2, rate-g and rate-lambda at their default grids, as a user
    reproducing the paper runs them.  One pass is one operation; the seed
    only orders the commands within it."""

    name = "figures"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        names = sorted(FIGURE_COMMANDS[size])
        self.order = [names[i] for i in np.random.default_rng(seed).permutation(len(names))]
        self.argv = {n: FIGURE_COMMANDS[size][n] + ["--output", os.path.join(workdir or "", f"{n}.csv")]
                     for n in self.order}

    def prepare(self):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)[self.size]

    def run_pass(self, index, tracer=None):
        return [self._timed(self.name, index, tracer, self._commands)]

    def _commands(self) -> dict[str, str]:
        return {name: self._cli(self.argv[name]) for name in self.order}

    def evals(self, ops):
        per_pass = sum(len(ref["columns"]["cs"]) for ref in self.reference.values())
        return per_pass * len(ops)

    def check_pass(self, index, ops):
        digest = hashlib.sha256()
        for op in ops:
            if not op.ok:
                continue
            for name, path in sorted(op.output.items()):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                self._check_table(op, name, read_table(path))
        self._check_hash(ops, digest.hexdigest())

    def _check_table(self, op, name, got):
        ref = self.reference[name]
        worst = 0.0
        shape_ok = list(got) == ref["header"]
        for col, (rtol, atol) in FIGURE_COLUMNS[name].items():
            a, b = np.asarray(got.get(col, [])), np.asarray(ref["columns"][col])
            if a.shape != b.shape:
                shape_ok = False
                continue
            excess = np.abs(a - b) - np.maximum(rtol * np.maximum(np.abs(a), np.abs(b)), atol)
            worst = max(worst, float(excess.max(initial=0.0)))
        self.record(op, "reference", shape_ok and worst <= 0.0,
                    f"{name} differs from the reference (excess {worst:.3e})")
        if name == "fig1":
            # the interference zero is the curve's one interior local minimum
            cs, r = got["cs"], got["rate_dimensionless"]
            minima = [i for i in range(1, len(r) - 1) if r[i - 1] > r[i] < r[i + 1]]
            bracket = len(minima) == 1 and cs[minima[0] - 1] < SQ38 < cs[minima[0] + 1]
            self.record(op, "fig1-zero-brackets-sqrt(3/8)", bracket,
                        f"interior minima at cs={[cs[i] for i in minima]}")
        if name == "fig2":
            cs, r = np.asarray(got["cs"]), np.asarray(got["rate_dimensionless"])
            worst_drop = 0.0
            for c in np.unique(cs):
                curve = r[cs == c]
                drop = np.max(curve[:-1] - curve[1:], initial=0.0) / curve.max()
                worst_drop = max(worst_drop, float(drop))
            self.record(op, "fig2-monotone", worst_drop <= 1e-9, f"relative drop {worst_drop:.3e}")


# --------------------------------------------------------------------------
# verify: the invariant suite and the Monte-Carlo oracles

MC_POINT = (1.0, 0.5, 1.0)  # Lambda, cs, Omega of the oracle runs
MC_K = 1.0
MC_SAMPLES = {"lambda-2g": 2_000_000, "g-2g": 8_000_000}  # the acceptance test's counts
MC_SEED = 7  # and its seed
N_CHECKS = 25


class Verify(Workload):
    """`tcphonon check` at its defaults, then the Monte-Carlo rate oracles at
    the acceptance test's sample counts and seed.  One pass is one operation;
    the benchmark's seed does not change it."""

    name = "verify"
    host_scaled = False  # its speed follows no loop we tried (README, Host speed)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.argv = ["check", "--format", "json", "--output", os.path.join(workdir or "", "check.json")]
        self.params = model.PhysicalParams(*MC_POINT)

    def prepare(self):
        self.closed = {
            "lambda-2g": rates.rate_lambda_to_2g(self.params).rate,
            "g-2g": rates.rate_g_to_2g(self.params, MC_K).rate,
        }

    def run_pass(self, index, tracer=None):
        return [self._timed(self.name, index, tracer, self._verify)]

    def _verify(self):
        code = cli.main(self.argv)  # exit 1 means a failed invariant, judged in check_pass
        mc = {process: rates.mc_rate_oracle(self.params, process, seed=MC_SEED,
                                            k=MC_K if process == "g-2g" else None,
                                            samples=samples).rate
              for process, samples in MC_SAMPLES.items()}
        return code, mc

    def evals(self, ops):
        return (N_CHECKS + len(MC_SAMPLES)) * len(ops)

    def check_pass(self, index, ops):
        digest = hashlib.sha256()
        for op in ops:
            if not op.ok:
                continue
            code, mc = op.output
            with open(self.argv[-1], "rb") as fh:
                text = fh.read()
            digest.update(text + repr(sorted(mc.items())).encode())
            doc = json.loads(text)
            failing = [c["name"] for c in doc["checks"] if not c["passed"]]
            self.record(op, "all-checks-pass",
                        code == 0 and doc["passed"] and not failing and len(doc["checks"]) == N_CHECKS,
                        f"exit {code}, {len(doc['checks'])} checks, failing: {failing}")
            for process, rate in mc.items():
                rel = abs(rate - self.closed[process]) / self.closed[process]
                self.record(op, "mc-within-1%", rel < 0.01, f"{process} off by {rel:.3%}")
        self._check_hash(ops, digest.hexdigest())


# --------------------------------------------------------------------------
# point-queries: one caller, single-point library calls, closed loop

BLOCK = {"full": 100, "tiny": 10}  # queries per pass
STRIDE = {"full": 10, "tiny": 1}  # every STRIDE-th query gets the oracle checks
PRELOAD_BLOCKS = 40
HOMOGENEITY_CLOSED, HOMOGENEITY_QUAD = 1e-6, 1e-5  # relative; see _check_homogeneity


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws in (0, 1], one in each of n equal strata, in random order."""
    return (rng.permutation(n) + 1.0 - rng.random(n)) / n


def query_block(seed: int, block: int, n: int) -> np.ndarray:
    """Rows (Lambda, cs, Omega, k/Lambda, x, theta): a Latin hypercube.

    Lambda and Omega are log-uniform over [1e-3, 1e3], cs uniform over (0, 1]
    (the model's whole domain), k/Lambda uniform over (0, 2] (the fig2 range).
    The G -> GG configuration puts child 1 at |q1| = x k, x in (0, 1], at
    polar angle theta to the parent; child 2 takes the rest of the momentum.
    Each block has one draw of every coordinate in each of n equal strata, so
    its mix of cheap and costly queries (small cs is the slow tail) barely
    depends on the seed.
    """
    rng = np.random.default_rng([seed, block])
    return np.column_stack([
        10.0 ** (6.0 * stratified(rng, n) - 3.0),
        stratified(rng, n),
        10.0 ** (6.0 * stratified(rng, n) - 3.0),
        2.0 * stratified(rng, n),
        stratified(rng, n),
        math.pi * stratified(rng, n),
    ])


class PointQueries(Workload):
    """Closed loop of single-point library queries; Lambda and Omega vary, so
    no grid is shared between calls."""

    name = "point-queries"
    pass_normalized = True  # every block has the same cost mix (query_block)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.block = BLOCK[size]
        self.blocks = [query_block(seed, b, self.block) for b in range(PRELOAD_BLOCKS)]

    def _rows(self, index):
        while len(self.blocks) <= index:
            self.blocks.append(query_block(self.seed, len(self.blocks), self.block))
        return self.blocks[index]

    def run_pass(self, index, tracer=None):
        return [self._timed("query", index * self.block + j, tracer, self._query, *row)
                for j, row in enumerate(self._rows(index))]

    @staticmethod
    def _query(lam, cs, omega, kappa, x, theta):
        p = model.PhysicalParams(float(lam), float(cs), float(omega))
        m = model.params_from_physical(p)
        k = float(lam * kappa)
        d = spectrum.dispersion(m, k)
        a = spectrum.amplitudes(m, k)
        q1 = np.array([k * x * math.sin(theta), 0.0, k * x * math.cos(theta)])
        parent = np.array([0.0, 0.0, k])
        g = vertex.BranchLabel.G
        me = vertex.matrix_element(p, vertex.Leg(g, parent), vertex.Leg(g, q1),
                                   vertex.Leg(g, parent - q1))
        gl = rates.rate_lambda_to_2g(p)
        gg = rates.rate_g_to_2g(p, k)
        return d, a, me, gl.rate, gg.rate

    def evals(self, ops):
        return len(ops)

    def check_pass(self, index, ops):
        digest = hashlib.sha256()
        stride = STRIDE[self.size]
        for j, (op, row) in enumerate(zip(ops, self._rows(index))):
            if not op.ok:
                continue
            d, a, me, gl, gg = op.output
            digest.update(repr((d, a, me, gl, gg)).encode())
            values = (d.omega_G, d.omega_L, abs(a.pi_G), abs(a.pi_L), abs(a.sigma_G),
                      abs(a.sigma_L), abs(me))
            self.record(op, "finite", all(math.isfinite(v) for v in values + (gl, gg)),
                        f"non-finite output {values + (gl, gg)}")
            self.record(op, "rates-non-negative", gl >= 0.0 and gg >= 0.0, f"rates {gl}, {gg}")
            if (index * self.block + j) % stride:
                continue
            lam, cs, omega, kappa = (float(v) for v in row[:4])
            self._check_oracle(op, lam, cs, omega, kappa, d, a)
            self._check_homogeneity(op, lam, cs, omega, kappa, gl, gg)
        if index == 0:
            self.output_sha256 = digest.hexdigest()

    def _check_oracle(self, op, lam, cs, omega, kappa, d, a):
        """dispersion and amplitudes against the symplectic oracle, in units
        of Lambda (frequencies) and Lambda^-1/2 (amplitudes), to 1e-8."""
        m = model.params_from_physical(model.PhysicalParams(lam, cs, omega))
        do, ao = spectrum.bogoliubov_oracle(m, lam * kappa)
        err = max(abs(do.omega_G - d.omega_G) / lam, abs(do.omega_L - d.omega_L) / lam,
                  *(abs(getattr(ao, f) - getattr(a, f)) * math.sqrt(lam)
                    for f in ("pi_G", "pi_L", "sigma_G", "sigma_L")))
        self.record(op, "oracle-1e-8", err <= 1e-8, f"deviation {err:.3e}")

    def _check_homogeneity(self, op, lam, cs, omega, kappa, gl, gg):
        """Gamma(Lambda, cs, Omega, k) = Lambda^8/Omega^4 Gamma(1, cs, 1, k/Lambda).

        The degree is the one the package states: its vertex carries
        (Lambda^3/Omega^2) sqrt(2 w_p w_1 w_2) (vertex.py), and
        tests/test_rates.py pins Lambda^8/Omega^4 for both channels.  The
        closed form must hold to 1e-6 relative.  The G -> 2G rate is two
        quadratures, each asked for 1e-6 relative or 1e-10 Lambda^5/Omega^4
        absolute; small-cs rates lie below that absolute floor, and pairs
        differ by up to 2.2e-6 (README), so it must hold to 1e-5.
        """
        unit = lam**8 / omega**4
        p1 = model.PhysicalParams(1.0, cs, 1.0)
        for name, got, scaled, tol in (
            ("Lambda->2G", gl, rates.rate_lambda_to_2g(p1).rate * unit, HOMOGENEITY_CLOSED),
            ("G->2G", gg, rates.rate_g_to_2g(p1, kappa).rate * unit, HOMOGENEITY_QUAD),
        ):
            dev = 0.0 if got == scaled else abs(got - scaled) / max(abs(got), abs(scaled))
            self.record(op, "homogeneity", dev <= tol,
                        f"{name} at Lambda={lam:.4g}, cs={cs:.4g}, Omega={omega:.4g}, "
                        f"k/Lambda={kappa:.4g}: relative deviation {dev:.3e} > {tol:g}")


WORKLOADS = {w.name: w for w in (Figures, Verify, PointQueries)}
