"""Command-line frontend: params, scan, density, schmidt, multichannel.

Every command is deterministic for a fixed configuration. Exit codes:
0 success, 2 configuration error, 3 regime error, 4 resolution error,
5 degenerate geometry or infeasible layout, 6 output error (an --out
directory or file that cannot be created or written).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .amplitude import SINC_GAUSS_HALF_MAX, SINC_GAUSS_PUBLISHED, validity_report
from .analysis import (
    OAM_MAX_COINCIDENCE_WIDTH,
    azimuthal_density,
    azimuthal_widths,
    double_gaussian_k,
    oam_closed_form_k,
    oam_spectrum,
    r_parameter,
    schmidt_analytic,
    schmidt_numeric,
)
from .configio import RunConfig, load_run_config, parse_angle, parse_length, write_csv
from .crystal import (
    derive_scales,
    ordinary_index,
    pump_index,
    walkoff_slope,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    InfeasibleLayoutError,
    RegimeError,
    ResolutionError,
)
from .multichannel import (
    DEFAULT_SAFETY_FACTOR,
    MAX_PLANES,
    build_state,
    equally_spaced_layout,
    multichannel_entanglement,
    validate_layout,
)

EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_RESOLUTION = 4
EXIT_GEOMETRY = 5
EXIT_OUTPUT = 6

# scan and density refuse to write more rows than this before they allocate
# an axis or open a file. A row of these files is at most 58 bytes (three
# %.12g fields of at most 18 characters); measured rows average 45-48 bytes
# in density maps at 2-8 um waists and 31-33 bytes in scans, so no file
# exceeds 2 GiB.
MAX_CSV_ROWS = 2**25


def _out_dir(args) -> Path:
    """The --out directory (default: the working directory), created."""
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, payload: dict, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out is not None:
        (_out_dir(args) / f"{name}.json").write_text(text + "\n")
    print(text)


def _load_config(args) -> RunConfig:
    # grid is read only by density and schmidt --method numeric, and
    # published_constants only by scan --quantity sincfit: refuse the others
    reads = {
        "grid": args.command == "density" or getattr(args, "method", "") == "numeric",
        "published_constants": getattr(args, "quantity", "") == "sincfit",
    }
    unread = [k for k, read in reads.items() if not read]
    overrides = {
        "grid": getattr(args, "grid", None),
        "published_constants": (
            True if getattr(args, "published_constants", False) else None
        ),
        "lambda_p": _maybe(parse_length, getattr(args, "lambda_p", None)),
        "w": _maybe(parse_length, getattr(args, "waist", None)),
        "L": _maybe(parse_length, getattr(args, "length", None)),
        "phi0": _maybe(parse_angle, getattr(args, "phi0", None)),
    }
    for key in unread:
        if overrides[key] is not None:
            raise ConfigError(f"--{key.replace('_', '-')} is not read by this command")
    return load_run_config(args.config, unread, **overrides)


def _maybe(fn, value):
    return None if value is None else fn(value)


def _check_rows(rows: int, what: str) -> None:
    if rows > MAX_CSV_ROWS:
        raise ConfigError(
            f"{what} makes {rows} rows, above the limit of {MAX_CSV_ROWS} rows"
        )


def cmd_params(args) -> int:
    cfg = _load_config(args)
    exp = cfg.experiment()
    scales = derive_scales(exp)
    report = validity_report(exp, scales)
    dist = azimuthal_widths(scales)
    narrow_ridge = dist.coincidence_width < OAM_MAX_COINCIDENCE_WIDTH
    payload = {
        "config": {
            "lambda_p_um": exp.lambda_p,
            "w_um": exp.w,
            "L_um": exp.L,
            "phi0_rad": exp.phi0,
            "crystal": exp.crystal.name,
            "crystal_provenance": exp.crystal.provenance,
        },
        "scales": {
            "n_o": scales.n_o,
            "n_p0": scales.n_p0,
            "theta0_rad": scales.theta0,
            "zeta": scales.zeta,
            "dtheta_p_rad": scales.dtheta_p,
            "dtheta_L_rad": scales.dtheta_L,
            "phi_const": scales.phi_const,
            "a_rad": scales.a,
            "b_rad": scales.b,
        },
        "validity": report.to_dict(),
        "entanglement": {
            "coincidence_width_rad": dist.coincidence_width,
            "single_width_rad": math.pi,
            "R": r_parameter(dist),
            "K_double_gaussian": double_gaussian_k(scales.a, scales.b),
            "K_oam_closed_form": oam_closed_form_k(dist),
            "flags": {"K_oam_closed_form": "pass" if narrow_ridge else "warn"},
        },
    }
    _emit(args, payload, "params")
    return 0


def cmd_scan(args) -> int:
    lo, hi = args.range
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"--range needs finite LO < HI and HI - LO, got {lo!r} {hi!r}")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    _check_rows(args.points, f"--points {args.points}")
    cfg = _load_config(args)
    exp = cfg.experiment()
    x = np.linspace(lo, hi, args.points)
    if args.quantity == "np_minus_no":
        no2 = ordinary_index(exp.crystal, 2.0 * exp.lambda_p)
        y = [pump_index(exp.crystal, exp.lambda_p, 0.0, 0.0, p) - no2 for p in x]
        header = ["phi0", "np_minus_no"]
    elif args.quantity == "walkoff":
        zeta = walkoff_slope(exp.crystal, exp.lambda_p, exp.phi0)
        y = -zeta * np.cos(x)
        header = ["alpha_p", "np_prime"]
    elif args.quantity == "sincfit":
        c = SINC_GAUSS_PUBLISHED if cfg.published_constants else SINC_GAUSS_HALF_MAX
        y = np.sinc(x / math.pi) ** 2 - np.exp(-c * x * x)
        header = ["x", "sinc_sq_minus_gauss"]
    else:  # argparse choices guard this
        raise ConfigError(f"unknown scan quantity {args.quantity!r}")
    path = _out_dir(args) / f"scan_{args.quantity}.csv"
    write_csv(path, header, [[("%.12g", x)]], [y])
    print(f"wrote {path}")
    return 0


def _points_across(width: float, n: int) -> float:
    """Points an n-point axis over [-pi/2, pi/2], step pi/(n - 1), puts
    across `width`."""
    return width * (n - 1) / math.pi


def cmd_density(args) -> int:
    cfg = _load_config(args)
    n = cfg.grid
    _check_rows(n * n, f"a grid of {n} points")
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    dac = dist.coincidence_width
    points_across = _points_across(dac, n)
    if points_across < 4.0:
        required = math.ceil(4.0 * math.pi / dac) + 1
        while _points_across(dac, required) < 4.0:  # rounding left it one short
            required += 1
        over = ""
        if required * required > MAX_CSV_ROWS:
            over = f"; its {required * required} rows are above the limit of {MAX_CSV_ROWS}"
        raise ResolutionError(
            f"grid of {n} points puts {points_across:.2f} points across the "
            f"coincidence width; need at least {required}{over}",
            required_points=required,
        )
    alpha = np.linspace(-math.pi / 2, math.pi / 2, n)
    path = _out_dir(args) / "density.csv"
    # one row of the map at a time: the n x n density is never held
    rows = (azimuthal_density(dist, a1, alpha) for a1 in alpha)
    axis = [("%.12g", alpha)]
    write_csv(path, ("alpha1", "alpha2", "density"), [axis, axis], rows)
    print(f"wrote {path}")
    return 0


def _double_gaussian(a: float, b: float):
    """schmidt_numeric's kernel exp(-(x+y)^2 / 2a^2 - (x-y)^2 / 2b^2) as a Hankel
    times a Toeplitz matrix: on its uniform grid x_i + x_j and x_i - x_j take
    2n - 1 values each, found from the first and last points, so 2(2n - 1)
    exponentials, not 2 n^2. Exactly symmetric, centrosymmetric to roundoff."""

    def kernel(col, row):
        col, row, n = col[:, 0], row[0], len(col)
        sums = np.concatenate((col + row[0], col[-1] + row[1:]))
        diffs = np.concatenate((col[0] - row[:0:-1], col - row[0]))
        hankel = sliding_window_view(np.exp(-(sums**2) / (2 * a * a)), n)
        toeplitz = sliding_window_view(np.exp(-(diffs**2) / (2 * b * b)), n)
        return hankel * toeplitz[:, ::-1]

    return kernel


def cmd_schmidt(args) -> int:
    cfg = _load_config(args)
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    a, b = scales.a, scales.b
    if args.method == "analytic":
        spectrum = schmidt_analytic(a, b)
    elif args.method == "numeric":
        # the window covers the wide Gaussian
        spectrum = schmidt_numeric(
            _double_gaussian(a, b), -4.0 * a, 4.0 * a, cfg.grid, feature_width=b
        )
    else:
        spectrum = oam_spectrum(dist)
    base = _out_dir(args) / f"schmidt_{args.method}"
    spectrum.export_csv(base.with_suffix(".csv"))
    summary = spectrum.to_summary_dict()
    summary["R"] = r_parameter(dist)
    text = json.dumps(summary, indent=2, allow_nan=False)
    base.with_suffix(".json").write_text(text + "\n")
    print(text)
    return 0


def cmd_multichannel(args) -> int:
    if args.planes > MAX_PLANES:
        raise ConfigError(f"-N {args.planes} is above the limit of {MAX_PLANES} planes")
    cfg = _load_config(args)
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    ring = scales.ring_thickness
    layout = equally_spaced_layout(
        args.planes,
        fiber_radius=2.0 * ring if args.fiber_radius is None else args.fiber_radius,
        ring_thickness=ring,
        coincidence_width=dist.coincidence_width,
        safety_factor=args.safety,
    )
    report = validate_layout(layout)
    payload = {"layout": report.to_dict(), "n_planes": args.planes}
    if report.feasible:
        state = build_state(layout)
        k, s = multichannel_entanglement(state)
        payload["K"] = k
        payload["entropy_bits"] = s
        payload["channel_weights"] = state.weights.tolist()
    _emit(args, payload, "multichannel")
    if not report.feasible:
        print(f"infeasible layout: {', '.join(report.failed)}", file=sys.stderr)
        return EXIT_GEOMETRY
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Angular biphoton amplitude and azimuthal entanglement "
        "of noncollinear type-I SPDC.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (defaults to built-in reference)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--lambda-p", dest="lambda_p", help="pump wavelength (e.g. 0.4047um)")
    common.add_argument("--waist", help="pump waist (e.g. 1464um)")
    common.add_argument("--length", help="crystal length (e.g. 0.5cm)")
    common.add_argument("--phi0", help="optic-axis angle (rad)")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("params", parents=[common], help="derived scales and validity")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("scan", parents=[common], help="figure-ready 1-D scans")
    # a negative --range bound in exponent form (-1e-3) is a number, not an option
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    p.add_argument("--quantity", required=True, choices=["np_minus_no", "walkoff", "sincfit"])
    p.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p.add_argument("--points", type=int, default=400)
    p.add_argument(
        "--published-constants", action="store_true",
        help="sincfit: use the published 0.395 Gaussian constant instead of the "
        "half-maximum 0.359",
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("density", parents=[common], help="azimuthal density map")
    p.add_argument("--grid", type=int, help="grid resolution")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("schmidt", parents=[common], help="Schmidt spectra")
    p.add_argument("--method", required=True, choices=["analytic", "numeric", "oam"])
    p.add_argument("--grid", type=int, help="grid resolution (--method numeric)")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("multichannel", parents=[common], help="channelization report")
    p.add_argument("--planes", "-N", type=int, required=True)
    p.add_argument("--fiber-radius", type=float, help="fiber angular radius, rad")
    p.add_argument("--safety", type=float, default=DEFAULT_SAFETY_FACTOR)
    p.set_defaults(func=cmd_multichannel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except (DegenerateGeometryError, InfeasibleLayoutError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
