"""Output checks of the benchmark, made apart from the program.

Every check recomputes what the output must be from a closed form, an
oracle evaluated here, or a property the method must have, and raises
CheckError when the output disagrees. No check compares with a saved copy
of earlier output, and none calls into `biphoton`: the checks use numpy
only, so a traced run records no span for them.

CSV files are parsed in blocks so that checking a 300,000-row map adds a
few megabytes, not the whole file, to the peak resident set the benchmark
reports for the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Acceptance-test tolerances (tests/test_acceptance.py, criteria 01-11).
THETA0_RAD, THETA0_TOL = 0.28, 0.01
ZETA, ZETA_TOL = 0.12, 0.01
PHI_CONST, PHI_CONST_REL = -900.0, 0.10
R_REF, R_REL = 1e4, 0.10
WINDOW_EDGES, WINDOW_TOL = (0.50, 2.64), 0.01
SINC_GAUSS = 0.359
COEFFICIENT_BOUND = 1e-12
MARGINAL_REL = 1e-3
NUMERIC_K_REL = 0.01
NUMERIC_WEIGHT_ABS = 1e-3
NUMERIC_LEADING = 60
OAM_RING_REL = 0.02
RING_POINTS = 2**18

# The CLI writes floats with 12 significant digits.
FORMAT_REL = 1e-9

_BLOCK = 1 << 20


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse CLI JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def read_csv(path: Path, header: str, ncols: int, replace=()) -> np.ndarray:
    """Numeric CSV body as an (rows, ncols) array, after checking the header.

    `replace` maps byte strings to numeric stand-ins before parsing (the
    OAM parity column). Every field must parse as a finite number.
    """
    blocks = []
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\r\n").decode()
        _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
        tail = b""
        while True:
            chunk = fh.read(_BLOCK)
            if not chunk:
                break
            chunk = tail + chunk
            cut = chunk.rfind(b"\n") + 1
            tail = chunk[cut:]
            blocks.append(_parse_block(chunk[:cut], ncols, replace, path))
        if tail:
            blocks.append(_parse_block(tail + b"\n", ncols, replace, path))
    data = np.concatenate(blocks) if blocks else np.empty((0, ncols))
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite value")
    return data


def _parse_block(block: bytes, ncols: int, replace, path: Path) -> np.ndarray:
    if not block:
        return np.empty((0, ncols))
    rows = block.count(b"\n")
    block = block.replace(b"\r", b"")
    for old, new in replace:
        block = block.replace(old, new)
    values = np.fromstring(block[:-1].replace(b"\n", b",").decode(), sep=",")
    _require(values.size == rows * ncols, f"{path.name}: malformed row")
    return values.reshape(rows, ncols)


def _close(got, want, rel: float, what: str, abs_tol: float = 0.0) -> None:
    """|got - want| <= rel |want| + abs_tol elementwise, shapes equal."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) - rel * np.abs(want) - abs_tol
    _require(
        got.shape == want.shape and np.all(err <= 0.0),
        f"{what}: max deviation {float(np.max(np.abs(got - want), initial=0)):.3g}",
    )


def check_params(doc: dict) -> None:
    """Published anchors, and R = pi^2 theta0 w / lambda_p from the JSON's
    own fields."""
    cfg, sc, ent = doc["config"], doc["scales"], doc["entanglement"]
    _require(abs(sc["theta0_rad"] - THETA0_RAD) <= THETA0_TOL, "theta0 off anchor")
    _require(abs(sc["zeta"] - ZETA) <= ZETA_TOL, "zeta off anchor")
    _require(
        abs(sc["phi_const"] - PHI_CONST) <= PHI_CONST_REL * abs(PHI_CONST),
        "constant phase off anchor",
    )
    _require(abs(ent["R"] - R_REF) <= R_REL * R_REF, "R off anchor")
    r = math.pi**2 * sc["theta0_rad"] * cfg["w_um"] / cfg["lambda_p_um"]
    _close(ent["R"], r, 1e-12, "R vs pi^2 theta0 w / lambda_p")


def _double_gaussian(r_param: float):
    """Widths and geometric ratio of the double-Gaussian kernel with
    a = 2 pi and a / b = 2R."""
    a = 2.0 * math.pi
    b = a / (2.0 * r_param)
    q = ((a - b) / (a + b)) ** 2
    return a, b, q


def check_schmidt_analytic(summary: dict, weights_csv: Path) -> int:
    """K = (a^2+b^2)/2ab, constant weight ratio ((a-b)/(a+b))^2, weights
    plus residual sum to 1, entropy equals the closed form. Returns rows."""
    _require(summary["method"] == "analytic_dg", "method label")
    a, b, q = _double_gaussian(summary["R"])
    _close(summary["schmidt_number"], (a * a + b * b) / (2 * a * b), FORMAT_REL, "K")
    data = read_csv(weights_csv, "index,weight", 2)
    _require(len(data) == summary["n_modes"], "row count differs from n_modes")
    _require(np.array_equal(data[:, 0], np.arange(len(data))), "index column")
    w = data[:, 1]
    _close(w[0], 1.0 - q, FORMAT_REL, "leading weight")
    _close(w[1:] / w[:-1], np.full(len(w) - 1, q), FORMAT_REL, "weight ratio")
    _close(w.sum() + summary["residual"], 1.0, FORMAT_REL, "weights + residual")
    entropy = -(math.log2(1.0 - q) + q / (1.0 - q) * math.log2(q))
    _close(summary["entropy_bits"], entropy, FORMAT_REL, "entropy")
    return len(data)


def ring_schmidt_number(r_param: float, n: int = RING_POINTS) -> float:
    """Schmidt number of exp(-(a1-a2)^2 / (2 dac^2)) periodised on the 2 pi
    ring, dac = pi / R: a circulant kernel, so its eigenvalues are the DFT
    of one row (Gray, Toeplitz and Circulant Matrices: A Review, 2006)."""
    dac = math.pi / r_param
    alpha = np.arange(n) * (2.0 * math.pi / n)
    gap = np.minimum(alpha, 2.0 * math.pi - alpha)
    eig = np.fft.fft(np.exp(-(gap**2) / (2.0 * dac * dac))).real
    w = eig**2 / np.sum(eig**2)
    return 1.0 / float(np.sum(w**2))


def check_schmidt_oam(summary: dict, weights_csv: Path) -> int:
    """K within 2% of the ring-kernel oracle and pi/2 times closed_form_k;
    stored weights normalised and consistent with K. Returns rows."""
    _require(summary["method"] == "oam", "method label")
    data = read_csv(
        weights_csv, "l,parity,weight", 3, replace=((b",cos,", b",0,"), (b",sin,", b",1,"))
    )
    n = summary["n_modes"]
    _require(len(data) == n and n % 2 == 1, "row count differs from n_modes")
    l_max = (n - 1) // 2
    want_l = np.concatenate(([0], np.repeat(np.arange(1, l_max + 1), 2)))
    _require(np.array_equal(data[:, 0], want_l), "l column")
    _require(np.array_equal(data[:, 1], np.r_[0, np.tile([0, 1], l_max)]), "parity column")
    w = data[:, 2]
    _close(w.sum(), 1.0, FORMAT_REL, "weight sum")
    _close(1.0 / np.sum(w * w), summary["schmidt_number"], 1e-6, "K from weights")
    ring_k = ring_schmidt_number(summary["R"])
    _close(summary["schmidt_number"], ring_k, OAM_RING_REL, "K vs ring oracle")
    _close(summary["schmidt_number"] / summary["closed_form_k"], math.pi / 2, OAM_RING_REL,
           "K / closed_form_k")
    return len(data)


def check_schmidt_numeric(summary: dict, weights_csv: Path, grid: int) -> int:
    """K within 1% of (a^2+b^2)/2ab, leading 60 weights within 1e-3 of the
    geometric closed form (criterion 08). Returns rows."""
    _require(summary["method"] == "numeric_svd", "method label")
    a, b, q = _double_gaussian(summary["R"])
    data = read_csv(weights_csv, "index,weight", 2)
    _require(len(data) == grid == summary["n_modes"], "row count differs from grid")
    w = data[:, 1]
    _require(np.all(np.diff(w) <= 0.0), "weights not descending")
    _close(w.sum(), 1.0, FORMAT_REL, "weight sum")
    _close(1.0 / np.sum(w * w), summary["schmidt_number"], 1e-6, "K from weights")
    k = (a * a + b * b) / (2 * a * b)
    _close(summary["schmidt_number"], k, NUMERIC_K_REL, "K vs closed form")
    m = NUMERIC_LEADING
    closed = (1.0 - q) * q ** np.arange(m)
    _require(np.max(np.abs(w[:m] - closed)) < NUMERIC_WEIGHT_ABS, "leading weights")
    return len(data)


def check_multichannel(doc: dict, planes: int) -> None:
    """K = 2N and S = 1 + log2 N, with 2N equal channel weights."""
    _require(doc["n_planes"] == planes and doc["layout"]["feasible"], "layout infeasible")
    _close(doc["K"], 2.0 * planes, 1e-12, "K = 2N")
    _require(abs(doc["entropy_bits"] - (1.0 + math.log2(planes))) < 1e-12, "S = 1 + log2 N")
    w = np.asarray(doc["channel_weights"], dtype=float)
    _close(w, np.full(2 * planes, 1.0 / (2 * planes)), 1e-12, "channel weights")


def check_scan(quantity: str, path: Path, lo: float, hi: float, points: int,
               params: dict) -> int:
    """walkoff is exactly -zeta cos(alpha); sincfit is sinc^2 - exp(-0.359 x^2)
    from the x column; np_minus_no is negative exactly on (0.50, 2.64) +-
    0.01, and n_p = np_minus_no + n_o(2 lambda_p) lies on the index
    ellipsoid: 1/n_p^2 is affine in sin^2(phi0) and gives the params JSON's
    n_p0 at its phi0. `params` is the params JSON of the same config.
    Returns rows."""
    scales = params["scales"]
    header = {
        "np_minus_no": "phi0,np_minus_no",
        "walkoff": "alpha_p,np_prime",
        "sincfit": "x,sinc_sq_minus_gauss",
    }[quantity]
    data = read_csv(path, header, 2)
    x, y = data[:, 0], data[:, 1]
    _require(len(data) == points, "row count differs from --points")
    _close(x, np.linspace(lo, hi, points), FORMAT_REL, "x column")
    if quantity == "walkoff":
        # absolute: near cos = 0 the 12-digit x column dominates the error
        _close(y, -scales["zeta"] * np.cos(x), 0.0, "-zeta cos(alpha)", abs_tol=1e-11)
    elif quantity == "sincfit":
        safe = np.where(x == 0.0, 1.0, x)
        sinc = np.where(x == 0.0, 1.0, np.sin(safe) / safe)
        _close(y, sinc**2 - np.exp(-SINC_GAUSS * x * x), 0.0,
               "sinc^2 - exp(-0.359 x^2)", abs_tol=1e-11)
    else:
        flips = np.flatnonzero(np.sign(y[:-1]) != np.sign(y[1:]))
        _require(len(flips) == 2, f"{len(flips)} sign changes, expected 2")
        roots = x[flips] - y[flips] * (x[flips + 1] - x[flips]) / (y[flips + 1] - y[flips])
        for root, edge in zip(roots, WINDOW_EDGES):
            _require(abs(root - edge) <= WINDOW_TOL, f"sign change at {root:.4f}")
        inside = (x > roots[0]) & (x < roots[1])
        _require(np.all(y[inside] < 0) and np.all(y[~inside] >= 0), "sign pattern")
        inv_sq = (y + scales["n_o"]) ** -2.0
        fit = np.polyfit(np.sin(x) ** 2, inv_sq, 1)
        _close(inv_sq, np.polyval(fit, np.sin(x) ** 2), 0.0, "index ellipsoid", abs_tol=1e-11)
        at_phi0 = np.polyval(fit, math.sin(params["config"]["phi0_rad"]) ** 2)
        _close(at_phi0, scales["n_p0"] ** -2.0, 0.0, "n_p0 on the ellipsoid", abs_tol=1e-11)
    return len(data)


def check_density(path: Path, grid: int, dac: float) -> int:
    """grid^2 rows, unit diagonal, symmetric, and exp(-(a1-a2)^2 / dac^2)
    with dac = lambda_p / (pi theta0 w). Returns rows."""
    data = read_csv(path, "alpha1,alpha2,density", 3)
    _require(len(data) == grid * grid, "row count differs from grid^2")
    alpha = np.linspace(-math.pi / 2, math.pi / 2, grid)
    _close(data[:, 0], np.repeat(alpha, grid), FORMAT_REL, "alpha1 column")
    _close(data[:, 1], np.tile(alpha, grid), FORMAT_REL, "alpha2 column")
    v = data[:, 2].reshape(grid, grid)
    _require(np.all(np.diag(v) == 1.0), "diagonal not 1")
    _require(np.array_equal(v, v.T), "map not symmetric")
    d = alpha[:, None] - alpha[None, :]
    # the absolute floor covers subnormal values, which carry few digits
    _close(v, np.exp(-(d * d) / (dac * dac)), FORMAT_REL, "Gaussian ridge", abs_tol=1e-300)
    return len(data)


def check_grid(path: Path, theta: np.ndarray, dalpha: np.ndarray, alpha0: float,
               theta0: float) -> int:
    """theta^2 * dalpha rows on the requested grid, values in [0, 1], peak 1
    on the cone (theta1 = theta2 = theta0) at dalpha = 0. Returns rows."""
    data = read_csv(path, "theta1,theta2,alpha1,alpha2,value", 5)
    nt, na = len(theta), len(dalpha)
    _require(len(data) == nt * nt * na, "row count differs from grid")
    _close(data[:, 0], np.repeat(theta, nt * na), FORMAT_REL, "theta1 column")
    _close(data[:, 1], np.tile(np.repeat(theta, na), nt), FORMAT_REL, "theta2 column")
    _close(data[:, 2] - data[:, 3], np.tile(dalpha, nt * nt), 1e-6, "alpha difference")
    v = data[:, 4]
    _require(np.all((v >= 0.0) & (v <= 1.0)), "value outside [0, 1]")
    top = int(np.argmax(v))
    _require(v[top] == 1.0, "peak is not 1")
    _require(
        data[top, 0] == data[top, 1] and abs(data[top, 0] - theta0) <= FORMAT_REL * theta0
        and data[top, 2] == data[top, 3] and abs(0.5 * (data[top, 2] + data[top, 3]) - alpha0)
        <= 1e-11,
        "peak off the cone at dalpha = 0",
    )
    return len(data)


def check_coefficient(value: float) -> None:
    """Fourier coefficients of the azimuthal Gaussian within the bound."""
    _require(math.isfinite(value) and 0.0 <= value < COEFFICIENT_BOUND,
             f"coefficient_check = {value!r}")


def check_marginal(ratios: np.ndarray, dalpha: np.ndarray, theta0: float,
                   dtheta_p: float) -> None:
    """Each marginal ratio within 1e-3 of exp(-(theta0 dalpha)^2 / dtheta_p^2);
    one row of ratios per dalpha, one column per alpha0."""
    want = np.exp(-((theta0 * dalpha) ** 2) / dtheta_p**2)
    _require(ratios.ndim == 2 and len(ratios) == len(dalpha), "marginal ratio shape")
    _close(ratios, np.repeat(want[:, None], ratios.shape[1], axis=1), MARGINAL_REL,
           "marginal ratio")


def check_identity(full_zero: np.ndarray, nwo: np.ndarray) -> None:
    """FULL with zeta = 0 equals NWO elementwise."""
    _require(full_zero.shape == nwo.shape and np.array_equal(full_zero, nwo),
             "FULL(zeta=0) != NWO")
