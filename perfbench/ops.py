"""The three workloads: seeded operation lists, warm-up and output checks.

An operation is one call to a public entry point of the program: a
`biphoton` subcommand through `biphoton.cli.main(argv)` in process, or one
public library function. Calls go through module attributes at call time,
so a traced run sees them.

Each workload is a fixed round of operations. The seed draws every input
size within a few per cent of a fixed level (its stratum), and the order of
the round, so that every seed does nearly the same work: the spread of the
end-to-end metrics across seeds then stays within their bounds. Sizes of
the cheap operations that sit below the median (`params`, `multichannel`,
`scan`) are drawn across their whole range instead. The levels are chosen
so that the median operation falls in the middle of one stratum's block of
timings, and the tail operation (ten beyond it) inside another.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

WORKLOADS = ("reference", "oracle", "maps")


class OpFailed(Exception):
    """The program refused or crashed on an operation."""


@dataclass
class Op:
    """One call into the program and the check of what it produced."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], int]  # returns CSV rows written; raises CheckError
    cli: bool = True


class Program:
    """The `biphoton` modules, looked up once; functions are read at call time."""

    def __init__(self):
        self.cli = importlib.import_module("biphoton.cli")
        self.configio = importlib.import_module("biphoton.configio")
        self.crystal = importlib.import_module("biphoton.crystal")
        self.amplitude = importlib.import_module("biphoton.amplitude")
        self.analysis = importlib.import_module("biphoton.analysis")

    def run_cli(self, argv: list[str]) -> str:
        """Run one subcommand in process; its stdout, or OpFailed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise OpFailed(f"biphoton {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()


class Record(NamedTuple):
    """What the timed phase keeps of one operation."""

    kind: str
    seconds: float
    rows: int  # CSV rows written, as the output check counted them
    written: int  # bytes of files written (0 for library operations)
    failed: bool
    cli: bool


@dataclass
class Workload:
    ops: list[Op]
    warm_up: list[Op]


def _jitter(rng, level: float, share: float) -> float:
    """A size within `share` below its stratum level."""
    return level * (1.0 - share * rng.random())


def _odd(n: float) -> int:
    n = int(round(n))
    return n if n % 2 else n + 1


class Builder:
    """Makes the operations of every workload.

    Set-up loads the shipped reference config and its crystal, derives the
    scales that size the inputs, and runs `params` at it: its checked JSON
    supplies theta0, zeta and the indices that the output checks use.
    """

    def __init__(self, program: Program, out: Path):
        self.p = program
        self.out = out
        self.exp = program.configio.load_run_config(None).experiment()
        self.scales = program.crystal.derive_scales(self.exp)
        self.params = self._params_doc()
        self.theta0 = self.params["scales"]["theta0_rad"]

    def _params_doc(self) -> dict:
        doc = checks.strict_json(self.p.run_cli(["params", "--out", str(self.out)]))
        checks.check_params(doc)
        return doc

    def _json_pair(self, stdout: str, name: str) -> dict:
        doc = checks.strict_json(stdout)
        saved = checks.strict_json((self.out / name).read_text())
        if saved != doc:
            raise checks.CheckError(f"{name} differs from stdout")
        return doc

    def coincidence_width(self, w_um: float) -> float:
        return self.exp.lambda_p / (math.pi * self.theta0 * w_um)

    # --- CLI operations -------------------------------------------------

    def params_op(self) -> Op:
        argv = ["params", "--out", str(self.out)]

        def check(stdout):
            checks.check_params(self._json_pair(stdout, "params.json"))
            return 0

        return Op("params", lambda: self.p.run_cli(argv), check)

    def schmidt_op(self, method: str, extra_argv=(), grid: int | None = None) -> Op:
        argv = ["schmidt", "--method", method, *extra_argv, "--out", str(self.out)]
        base = self.out / f"schmidt_{method}"

        def check(stdout):
            summary = self._json_pair(stdout, base.with_suffix(".json").name)
            csv_path = base.with_suffix(".csv")
            if method == "analytic":
                return checks.check_schmidt_analytic(summary, csv_path)
            if method == "oam":
                return checks.check_schmidt_oam(summary, csv_path)
            return checks.check_schmidt_numeric(summary, csv_path, grid)

        return Op(f"schmidt_{method}", lambda: self.p.run_cli(argv), check)

    def multichannel_op(self, planes: int) -> Op:
        argv = ["multichannel", "-N", str(planes), "--out", str(self.out)]

        def check(stdout):
            checks.check_multichannel(self._json_pair(stdout, "multichannel.json"), planes)
            return 0

        return Op("multichannel", lambda: self.p.run_cli(argv), check)

    def max_planes(self) -> int:
        """Largest N whose equal spacing pi/N strictly clears the required
        gap, from the params JSON (default fiber radius 2 dtheta_L/theta0,
        safety factor 3)."""
        sc, ent = self.params["scales"], self.params["entanglement"]
        fiber = 2.0 * sc["dtheta_L_rad"] / sc["theta0_rad"]
        required = 3.0 * max(2.0 * fiber, ent["coincidence_width_rad"])
        return math.ceil(math.pi / required) - 1

    def scan_op(self, quantity: str, lo: float, hi: float, points: int) -> Op:
        argv = ["scan", "--quantity", quantity, "--range", repr(lo), repr(hi),
                "--points", str(points), "--out", str(self.out)]
        path = self.out / f"scan_{quantity}.csv"

        def check(stdout):
            return checks.check_scan(quantity, path, lo, hi, points, self.params)

        return Op(f"scan_{quantity}", lambda: self.p.run_cli(argv), check)

    def numeric_op(self, w_um: float) -> Op:
        # the CLI needs 8 points across b on the window [-4a, 4a]: n >= 64 a/b
        a_over_b = 2.0 * math.pi**2 * self.theta0 * w_um / self.exp.lambda_p
        grid = math.ceil(64.0 * a_over_b * 1.01)
        return self.schmidt_op("numeric", ["--waist", f"{w_um!r}um", "--grid", str(grid)], grid)

    def density_op(self, w_um: float) -> Op:
        # the CLI needs 4 points across the coincidence width on (-pi/2, pi/2)
        dac = self.coincidence_width(w_um)
        grid = math.ceil(4.0 * math.pi / dac * 1.02) + 1
        argv = ["density", "--waist", f"{w_um!r}um", "--grid", str(grid), "--out", str(self.out)]
        path = self.out / "density.csv"
        return Op("density", lambda: self.p.run_cli(argv),
                  lambda stdout: checks.check_density(path, grid, dac))

    # --- library operations ---------------------------------------------

    def model(self, kind: str):
        amp = self.p.amplitude
        return amp.AmplitudeModel(amp.AmplitudeKind[kind], self.scales)

    def coefficient_op(self, l_max: int) -> Op:
        dist = self.p.analysis.azimuthal_widths(self.scales)

        def check(value):
            checks.check_coefficient(value)
            return 0

        return Op("coefficient_check",
                  lambda: self.p.analysis.coefficient_check(dist, l_max), check, cli=False)

    def _polar_grid(self, n: int):
        """Criterion 10's (tau, d) plane: tau = theta1 + theta2 - 2 theta0
        over 12 sinc-Gaussian widths plus the walk-off shift, d = theta1 -
        theta2 over 10 pump widths."""
        s = self.scales
        t0 = s.theta0
        sig_tau = 2.0 * s.dtheta_L / (math.sqrt(checks.SINC_GAUSS) * t0)
        shift = (s.n_o / s.n_p0) * s.zeta * (0.01 * 2.0 + t0 * 8.0 * s.b) / t0
        tau = np.linspace(-12 * sig_tau - 2 * shift, 12 * sig_tau + 2 * shift, n)
        d = np.linspace(-10 * s.dtheta_p, 10 * s.dtheta_p, n)
        tt, dd = np.meshgrid(tau, d, indexing="ij")
        return t0 + 0.5 * (tt + dd), t0 + 0.5 * (tt - dd)

    def marginal_op(self, n: int, dalpha: np.ndarray, alpha0: np.ndarray) -> Op:
        """Criterion 10: the DOUBLE_GAUSSIAN density summed over the polar
        plane, relative to dalpha = 0, at each (dalpha, alpha0)."""
        th1, th2 = self._polar_grid(n)
        model = self.model("DOUBLE_GAUSSIAN")
        amp = self.p.amplitude

        def call():
            def marginal(dal, al0):
                pair = amp.AngularPair(th1, th2, al0 + 0.5 * dal, al0 - 0.5 * dal)
                return amp.probability_density(model, pair).sum()

            base = [marginal(0.0, al0) for al0 in alpha0]
            return np.array([[marginal(dal, al0) / b0 for al0, b0 in zip(alpha0, base)]
                             for dal in dalpha])

        def check(ratios):
            checks.check_marginal(ratios, dalpha, self.theta0, self.scales.dtheta_p)
            return 0

        return Op("marginal", call, check, cli=False)

    def identity_op(self, n: int, dalpha: float, alpha0: float) -> Op:
        """FULL with zeta = 0 against NWO on the same polar plane."""
        th1, th2 = self._polar_grid(n)
        amp = self.p.amplitude
        full0 = self.model("FULL").without_walkoff()
        nwo = self.model("NWO")
        pair = amp.AngularPair(th1, th2, alpha0 + 0.5 * dalpha, alpha0 - 0.5 * dalpha)

        def call():
            return (amp.probability_density(full0, pair), amp.probability_density(nwo, pair))

        def check(result):
            checks.check_identity(*result)
            return 0

        return Op("identity", call, check, cli=False)

    def grid_op(self, kind: str, n_theta: int, n_dalpha: int, alpha0: float) -> Op:
        """export_grid_csv around the cone: odd grids centred exactly on
        theta0 and dalpha = 0, 4 widths each side."""
        s = self.scales
        half_t = 4.0 * max(s.dtheta_L / s.theta0, s.dtheta_p)
        mt, ma = n_theta // 2, n_dalpha // 2
        theta = s.theta0 + half_t * np.arange(-mt, mt + 1) / mt
        dalpha = 4.0 * s.b * np.arange(-ma, ma + 1) / ma
        model = self.model(kind)
        path = self.out / "grid.csv"

        def check(_):
            return checks.check_grid(path, theta, dalpha, alpha0, s.theta0)

        return Op(f"export_grid_{kind.lower()}",
                  lambda: self.p.amplitude.export_grid_csv(path, model, theta, dalpha, alpha0),
                  check, cli=False)


def _reference(b: Builder, rng) -> tuple[list[Op], list[Op]]:
    n_max = b.max_planes()
    ops = [
        b.params_op(),
        b.multichannel_op(int(rng.integers(1, int(0.95 * n_max) + 1))),
        b.scan_op("np_minus_no", 0.3, 2.9, int(rng.integers(200, 1001))),
        b.scan_op("walkoff", -math.pi, math.pi, int(rng.integers(200, 2001))),
        b.scan_op("sincfit", -8.0, 8.0, int(rng.integers(200, 2001))),
    ]
    ops += [b.schmidt_op("oam") for _ in range(3)]
    ops += [b.schmidt_op("analytic") for _ in range(5)]
    warm = [
        b.multichannel_op(4),
        b.scan_op("np_minus_no", 0.3, 2.9, 50),
        b.scan_op("walkoff", -math.pi, math.pi, 50),
        b.scan_op("sincfit", -8.0, 8.0, 50),
        b.schmidt_op("oam", ["--waist", "20um"]),
        b.schmidt_op("analytic", ["--waist", "20um"]),
    ]
    return ops, warm


def _oracle(b: Builder, rng) -> tuple[list[Op], list[Op]]:
    def angles():
        n = int(round(_jitter(rng, 401, 0.02)))
        dalpha = np.linspace(-3.0, 3.0, 7) * b.scales.b * _jitter(rng, 1.0, 0.05)
        return n, dalpha, rng.uniform(-1.4, 1.4, 3)

    ops = []
    for _ in range(2):
        n, dalpha, alpha0 = angles()
        ops.append(b.identity_op(n, float(dalpha[-2]), float(alpha0[0])))
        ops.append(b.marginal_op(n, dalpha, alpha0))
    ops += [b.numeric_op(_jitter(rng, w, 0.02)) for w in (1.0, 1.25, 1.5, 1.75, 2.0)]
    ops += [b.coefficient_op(int(_jitter(rng, l, 0.03))) for l in (300, 900)]
    warm = [
        b.numeric_op(0.5),
        b.coefficient_op(10),
        b.marginal_op(41, np.array([-1.0, 1.0]) * b.scales.b, np.array([0.3])),
        b.identity_op(41, b.scales.b, 0.3),
    ]
    return ops, warm


def _maps(b: Builder, rng) -> tuple[list[Op], list[Op]]:
    # the three middle waists make the median block, the two near 14 um the
    # block that holds the tail, so neither rests on one operation's timings
    waists = (2.0, 3.5, 5.0, 7.5, 8.0, 8.5, 13.5, 14.5, 20.0)
    ops = [b.density_op(_jitter(rng, w, 0.02)) for w in waists]
    for kind in ("FULL", "NWO", "DOUBLE_GAUSSIAN"):
        ops.append(b.grid_op(kind, 9, _odd(_jitter(rng, 31, 0.05)), rng.uniform(-1.2, 1.2)))
        ops.append(b.grid_op(kind, 25, _odd(_jitter(rng, 51, 0.05)), rng.uniform(-1.2, 1.2)))
    warm = [b.density_op(1.0)] + [b.grid_op(k, 3, 5, 0.3)
                                  for k in ("FULL", "NWO", "DOUBLE_GAUSSIAN")]
    return ops, warm


_BUILDERS = {"reference": _reference, "oracle": _oracle, "maps": _maps}


def build(name: str, seed: int, out: Path) -> Workload:
    """Load the reference config and crystal, run `params` at it, and draw
    the workload's round from the seed."""
    builder = Builder(Program(), out)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    ops, warm = _BUILDERS[name](builder, rng)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, warm)
