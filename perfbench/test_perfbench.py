"""Tests of the benchmark itself: every output check passes on the
program's real output and fails on a deliberately perturbed copy, and the
tracer nests spans as the calls nest.

Sizes are small (waists of 0.5-20 um, grids of a few hundred points) so the
whole file runs in a few seconds.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import ops
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def builder(tmp_path_factory):
    return ops.Builder(ops.Program(), tmp_path_factory.mktemp("out"))


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _scale(path: Path, row: int, col: int, factor: float) -> None:
    """Multiply one field of data row `row` (0 = first after the header)."""

    def edit(lines):
        fields = lines[row + 1].split(",")
        fields[col] = repr(float(fields[col]) * factor)
        lines[row + 1] = ",".join(fields)
        return lines

    _rewrite(path, edit)


def _drop(path: Path, row: int) -> None:
    _rewrite(path, lambda lines: lines[: row + 1] + lines[row + 2:])


def _fails(op, result, perturb):
    """The check passes on the real output and fails once it is perturbed."""
    assert op.check(result) >= 0
    perturb()
    with pytest.raises(checks.CheckError):
        op.check(result)


@pytest.mark.parametrize("row", [0, 5])
def test_analytic_weight_scaled(builder, row):
    op = builder.schmidt_op("analytic", ["--waist", "20um"])
    _fails(op, op.call(), lambda: _scale(builder.out / "schmidt_analytic.csv", row, 1, 1.01))


def test_analytic_row_dropped(builder):
    op = builder.schmidt_op("analytic", ["--waist", "20um"])
    _fails(op, op.call(), lambda: _drop(builder.out / "schmidt_analytic.csv", 3))


def test_analytic_summary_disagrees_with_file(builder):
    op = builder.schmidt_op("analytic", ["--waist", "20um"])
    stdout = op.call()
    doc = json.loads(stdout)
    doc["entropy_bits"] *= 1.01
    with pytest.raises(checks.CheckError):
        op.check(json.dumps(doc))


def test_oam_weight_scaled_and_row_dropped(builder):
    op = builder.schmidt_op("oam", ["--waist", "20um"])
    csv_path = builder.out / "schmidt_oam.csv"
    _fails(op, op.call(), lambda: _scale(csv_path, 2, 2, 1.01))
    _fails(op, op.call(), lambda: _drop(csv_path, 0))


def test_numeric_weight_scaled_and_row_dropped(builder):
    op = builder.numeric_op(0.5)
    csv_path = builder.out / "schmidt_numeric.csv"
    _fails(op, op.call(), lambda: _scale(csv_path, 0, 1, 1.01))
    _fails(op, op.call(), lambda: _drop(csv_path, 10))


def test_params_anchor_and_identity(builder):
    op = builder.params_op()
    stdout = op.call()
    assert op.check(stdout) == 0
    for section, key in (("entanglement", "R"), ("scales", "theta0_rad")):
        doc = json.loads(stdout)
        doc[section][key] *= 1.01
        with pytest.raises(checks.CheckError):
            checks.check_params(doc)


def test_strict_json_rejects_nan():
    with pytest.raises(checks.CheckError):
        checks.strict_json('{"R": NaN}')
    with pytest.raises(checks.CheckError):
        checks.strict_json('{"R": Infinity}')


def test_multichannel_weight_scaled(builder):
    op = builder.multichannel_op(4)
    stdout = op.call()
    assert op.check(stdout) == 0
    doc = json.loads(stdout)
    doc["channel_weights"][3] *= 1.01
    with pytest.raises(checks.CheckError):
        checks.check_multichannel(doc, 4)
    assert builder.max_planes() > 1000


@pytest.mark.parametrize("quantity,lo,hi", [
    ("walkoff", -math.pi, math.pi),
    ("sincfit", -8.0, 8.0),
    ("np_minus_no", 0.3, 2.9),
])
def test_scan_value_scaled_and_row_dropped(builder, quantity, lo, hi):
    op = builder.scan_op(quantity, lo, hi, 301)
    path = builder.out / f"scan_{quantity}.csv"
    _fails(op, op.call(), lambda: _scale(path, 40, 1, 1.01))
    _fails(op, op.call(), lambda: _drop(path, 7))


def test_scan_sign_change_moved(builder):
    op = builder.scan_op("np_minus_no", 0.3, 2.9, 301)
    path = builder.out / "scan_np_minus_no.csv"
    op.call()
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    flip = int(np.flatnonzero(np.diff(np.sign(data[:, 1])))[0])
    _fails(op, None, lambda: _scale(path, flip + 2, 1, -1.0))


def test_density_value_scaled_and_row_dropped(builder):
    op = builder.density_op(1.0)
    path = builder.out / "density.csv"
    _fails(op, op.call(), lambda: _scale(path, 1, 2, 1.01))
    _fails(op, op.call(), lambda: _drop(path, 0))


def test_grid_peak_scaled_and_row_dropped(builder):
    op = builder.grid_op("FULL", 5, 7, 0.4)
    path = builder.out / "grid.csv"
    centre = (5 * 5 * 7) // 2  # theta1 = theta2 = theta0, dalpha = 0
    op.call()
    assert np.loadtxt(path, delimiter=",", skiprows=1)[centre, 4] == 1.0
    _fails(op, None, lambda: _scale(path, centre, 4, 1.01))
    _fails(op, op.call(), lambda: _drop(path, 12))


def test_library_checks_fail_on_perturbed_values(builder):
    assert builder.coefficient_op(10).check(4e-16) == 0
    with pytest.raises(checks.CheckError):
        checks.check_coefficient(1e-10)
    op = builder.marginal_op(41, np.array([-1.0, 1.0]) * builder.scales.b, np.array([0.3]))
    ratios = op.call()
    assert op.check(ratios) == 0
    with pytest.raises(checks.CheckError):
        op.check(ratios * 1.01)
    op = builder.identity_op(41, builder.scales.b, 0.3)
    full0, nwo = op.call()
    assert op.check((full0, nwo)) == 0
    with pytest.raises(checks.CheckError):
        op.check((full0, np.nextafter(nwo, 2.0)))


def test_ring_oracle_matches_closed_form():
    # K = sqrt(2 pi) / dac with dac = pi / R, while dac << 1
    assert checks.ring_schmidt_number(1e4) == pytest.approx(math.sqrt(2 * math.pi) * 1e4 / math.pi,
                                                           rel=1e-6)


def test_spans_nest_and_uninstall(builder):
    tracer = spans.Tracer()
    cli_main = builder.p.cli.main
    tracer.install()
    try:
        tracer.begin_op()
        builder.numeric_op(0.5).call()
        tracer.begin_op()
        builder.grid_op("NWO", 3, 5, 0.0).call()
    finally:
        tracer.uninstall()
    assert builder.p.cli.main is cli_main
    names = [s[spans.NAME] for s in tracer.spans]

    def parent_of(name):
        s = tracer.spans[names.index(name)]
        return tracer.spans[s[spans.PARENT]][spans.NAME]

    assert parent_of("analysis.schmidt_numeric") == "cli.schmidt"
    assert parent_of("analysis.export_csv") == "cli.schmidt"
    assert parent_of("amplitude.probability_density") == "amplitude.export_grid_csv"
    assert {s[spans.OP] for s in tracer.spans} == {0, 1}
    values = layers.per_layer(tracer.spans, [], 1, 1.0)
    assert values["amplitude.probability_density.calls"] == 9
    assert values["analysis.schmidt_numeric.n"] > 400


def test_tail_has_ten_beyond():
    seconds = list(range(40))
    assert run.tail(seconds) == 29


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in layers.METRICS]
    reported = run.end_to_end({"seconds": [1.0] * 40, "completed_per_round": 11.0,
                               "round_p50_s": 11.0, "peak_rss_mb": 1.0}, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in reported.items()}
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
