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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .amplitude import (
    SINC_GAUSS_FITTED,
    SINC_GAUSS_PUBLISHED,
    validity_report,
)
from .analysis import (
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
    return load_run_config(args.config, **overrides)


def _maybe(fn, value):
    return None if value is None else fn(value)


def cmd_params(args) -> int:
    cfg = _load_config(args)
    exp = cfg.experiment()
    scales = derive_scales(exp)
    report = validity_report(exp, scales)
    dist = azimuthal_widths(scales)
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
            "single_width_rad": dist.single_width,
            "R": r_parameter(dist),
            "K_double_gaussian": double_gaussian_k(scales.a, scales.b),
            "K_oam_closed_form": oam_closed_form_k(scales.theta0 * exp.w / exp.lambda_p),
        },
    }
    _emit(args, payload, "params")
    return 0


def cmd_scan(args) -> int:
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"--range needs finite LO < HI, got {lo!r} {hi!r}")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
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
        c = SINC_GAUSS_PUBLISHED if cfg.published_constants else SINC_GAUSS_FITTED
        y = np.sinc(x / math.pi) ** 2 - np.exp(-c * x * x)
        header = ["x", "sinc_sq_minus_gauss"]
    else:  # argparse choices guard this
        raise ConfigError(f"unknown scan quantity {args.quantity!r}")
    path = _out_dir(args) / f"scan_{args.quantity}.csv"
    write_csv(path, header, ("%.12g", "%.12g"), [(x, y)])
    print(f"wrote {path}")
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args)
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    n = cfg.grid
    alpha = np.linspace(-math.pi / 2, math.pi / 2, n)
    step = alpha[1] - alpha[0]
    points_across = dist.coincidence_width / step
    if points_across < 4.0:
        required = int(math.ceil(4.0 * math.pi / dist.coincidence_width))
        raise ResolutionError(
            f"grid of {n} points puts {points_across:.2f} points across the "
            f"coincidence width; need at least {required}",
            required_points=required,
        )
    path = _out_dir(args) / "density.csv"
    rows = (
        (np.full(n, a1), alpha, azimuthal_density(dist, a1, alpha)) for a1 in alpha
    )
    write_csv(path, ("alpha1", "alpha2", "density"), ("%.12g",) * 3, rows)
    print(f"wrote {path}")
    return 0


def cmd_schmidt(args) -> int:
    cfg = _load_config(args)
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    a, b = scales.a, scales.b
    if args.method == "analytic":
        spectrum = schmidt_analytic(a, b)
    elif args.method == "numeric":
        # double-Gaussian azimuthal kernel; window covers the wide Gaussian
        def kernel(x, y):
            return np.exp(-((x + y) ** 2) / (2 * a * a)) * np.exp(
                -((x - y) ** 2) / (2 * b * b)
            )

        spectrum = schmidt_numeric(
            kernel, -4.0 * a, 4.0 * a, cfg.grid, feature_width=b
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
    cfg = _load_config(args)
    scales = derive_scales(cfg.experiment())
    dist = azimuthal_widths(scales)
    ring_thickness = scales.dtheta_L / scales.theta0
    fiber_radius = 2.0 * ring_thickness if args.fiber_radius is None else args.fiber_radius
    layout = equally_spaced_layout(
        args.planes,
        fiber_radius=fiber_radius,
        ring_thickness=ring_thickness,
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
    common.add_argument("--grid", type=int, help="grid resolution")
    common.add_argument("--lambda-p", dest="lambda_p", help="pump wavelength (e.g. 0.4047um)")
    common.add_argument("--waist", help="pump waist (e.g. 1464um)")
    common.add_argument("--length", help="crystal length (e.g. 0.5cm)")
    common.add_argument("--phi0", help="optic-axis angle (rad)")
    common.add_argument(
        "--published-constants", action="store_true",
        help="use the published 0.395 Gaussian constant instead of the half-maximum 0.359",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("params", parents=[common], help="derived scales and validity")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("scan", parents=[common], help="figure-ready 1-D scans")
    p.add_argument("--quantity", required=True, choices=["np_minus_no", "walkoff", "sincfit"])
    p.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p.add_argument("--points", type=int, default=400)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("density", parents=[common], help="azimuthal density map")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("schmidt", parents=[common], help="Schmidt spectra")
    p.add_argument("--method", required=True, choices=["analytic", "numeric", "oam"])
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
