"""End-to-end CLI: exit codes, file schemas, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from biphoton.analysis import NUMERIC_MATRICES
from biphoton.cli import main


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) if i != 1 or rows[0][1] != "parity" else v
                      for i, v in enumerate(r)] for r in rows[1:]]


class TestParams:
    def test_reference_anchors(self, tmp_path, capsys):
        assert run("params", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "params.json").read_text())
        scales = payload["scales"]
        assert scales["theta0_rad"] == pytest.approx(0.28, abs=0.01)
        assert scales["zeta"] == pytest.approx(0.12, abs=0.01)
        assert scales["phi_const"] == pytest.approx(-900.0, rel=0.10)
        ent = payload["entanglement"]
        assert ent["R"] == pytest.approx(1e4, rel=0.1)
        assert ent["K_double_gaussian"] == pytest.approx(ent["R"], rel=1e-6)
        # printed closed form, kept for comparison with the discrete sum
        assert ent["K_oam_closed_form"] == pytest.approx(
            2.0 * math.sqrt(2.0 * math.pi) * 0.28 * 1464.0 / 0.4047, rel=0.01
        )
        assert set(payload["validity"]["flags"].values()) == {"pass"}

    def test_json_roundtrip(self, tmp_path, capsys):
        assert run("params", "--out", str(tmp_path)) == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout) == json.loads((tmp_path / "params.json").read_text())

    def test_collinear_regime_exit_code(self, capsys):
        assert run("params", "--phi0", "0.5") == 3
        assert "regime" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.config"
        bad.write_text("lambda_p = not-a-number\n")
        assert run("params", "--config", str(bad)) == 2
        assert run("params", "--config", str(tmp_path / "missing.config")) == 2

    def test_flag_overrides_config(self, tmp_path):
        assert run("params", "--out", str(tmp_path), "--waist", "2928um") == 0
        payload = json.loads((tmp_path / "params.json").read_text())
        assert payload["config"]["w_um"] == pytest.approx(2928.0)
        assert payload["entanglement"]["R"] == pytest.approx(2e4, rel=0.1)

    @pytest.mark.parametrize("flag,value", [
        ("--waist", "nan"), ("--length", "inf"), ("--lambda-p", "nan"),
        ("--phi0", "nan"), ("--waist", "-infum"),
    ])
    def test_non_finite_input_exit_code(self, capsys, flag, value):
        assert run("params", f"{flag}={value}") == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_config_file_that_is_a_directory(self, tmp_path, capsys):
        assert run("params", "--config", str(tmp_path)) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("params", "--waist", "1e300m"),
        ("params", "--waist", "1e150m"),
        ("params", "--waist", "1e-200um"),
        ("schmidt", "--method", "analytic", "--waist", "1e100m"),
        ("params", "--length", "1e-310um"),
    ])
    def test_absurd_finite_length_exit_code(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [("--waist", "1e-3um"), ("--length", "1e13um")])
    def test_ends_of_the_length_range_are_accepted(self, tmp_path, capsys, flag, value):
        assert run("params", flag, value, "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("lines,message", [
        ("w = 2um\nL 0.5cm\n", ":3: expected 'key = value'"),
        ("format = csv\n", ":2: unknown key 'format'"),
        ("include_walkoff = no\n", ":2: unknown key 'include_walkoff'"),
    ])
    def test_bad_or_removed_config_line_exit_code(self, tmp_path, capsys, lines, message):
        path = tmp_path / "run.config"
        path.write_text("# run\n" + lines)
        assert run("params", "--config", str(path)) == 2
        assert f"{path}{message}" in capsys.readouterr().err

    def test_crystal_file_line_without_equals_exit_code(self, tmp_path, capsys):
        crystal = tmp_path / "bad.crystal"
        crystal.write_text("name = BBO\n\nordinary_A 2.7359\n")
        config = tmp_path / "run.config"
        config.write_text(f"crystal = {crystal}\n")
        assert run("params", "--config", str(config)) == 2
        assert f"{crystal}:3: expected 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--format", "json"), ("--no-walkoff",), ("--walkoff",),
    ])
    def test_removed_flags_are_rejected(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run("params", *flags)
        assert exc.value.code == 2


class TestScan:
    def test_index_difference_crosses_window_edges(self, tmp_path):
        assert run(
            "scan", "--quantity", "np_minus_no", "--range", "0.1", "3.0",
            "--points", "300", "--out", str(tmp_path),
        ) == 0
        header, rows = read_csv(tmp_path / "scan_np_minus_no.csv")
        assert header == ["phi0", "np_minus_no"]
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        crossings = x[:-1][np.sign(y[:-1]) != np.sign(y[1:])]
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(0.50, abs=0.02)
        assert crossings[1] == pytest.approx(2.64, abs=0.02)

    def test_walkoff_scan_cosine_shape(self, tmp_path):
        assert run(
            "scan", "--quantity", "walkoff", "--range", "0", str(math.pi),
            "--points", "181", "--out", str(tmp_path),
        ) == 0
        header, rows = read_csv(tmp_path / "scan_walkoff.csv")
        assert header == ["alpha_p", "np_prime"]
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        zeta = 0.12494468891287291
        assert np.max(np.abs(y + zeta * np.cos(x))) < 1e-12
        assert abs(y[np.argmin(np.abs(x - math.pi / 2))]) < 1e-10

    def test_sincfit_scan_regression_value(self, tmp_path):
        assert run(
            "scan", "--quantity", "sincfit", "--range", str(-math.pi), str(math.pi),
            "--points", "2001", "--out", str(tmp_path),
        ) == 0
        _, rows = read_csv(tmp_path / "scan_sincfit.csv")
        max_gap = max(abs(r[1]) for r in rows)
        # max |sinc^2 - exp(-0.359 x^2)| on |x| <= pi, frozen regression value
        assert max_gap == pytest.approx(0.054037, abs=5e-3)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "scan", "--quantity", "sincfit", "--range", "-3", "3",
                "--out", str(out),
            ) == 0
        assert (a / "scan_sincfit.csv").read_bytes() == (b / "scan_sincfit.csv").read_bytes()


    @pytest.mark.parametrize("bounds,points,message", [
        (("nan", "1"), "3", "--range needs finite LO < HI"),
        (("0", "inf"), "3", "--range needs finite LO < HI"),
        (("1", "0"), "3", "--range needs finite LO < HI"),
        (("1", "1"), "3", "--range needs finite LO < HI"),
        (("0", "1"), "0", "--points must be >= 2"),
        (("0", "1"), "-1", "--points must be >= 2"),
        (("0", "1"), "1", "--points must be >= 2"),
    ])
    def test_bad_range_or_points_exit_code(self, tmp_path, capsys, bounds, points, message):
        out = tmp_path / "out"
        assert run(
            "scan", "--quantity", "sincfit", "--range", *bounds,
            "--points", points, "--out", str(out),
        ) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestDensity:
    def test_grid_and_ridge(self, tmp_path):
        # a 2 um waist widens the coincidence ridge enough for a 201-point
        # azimuthal grid to resolve it
        assert run(
            "density", "--waist", "2um", "--grid", "201", "--out", str(tmp_path)
        ) == 0
        header, rows = read_csv(tmp_path / "density.csv")
        assert header == ["alpha1", "alpha2", "density"]
        assert len(rows) == 201 * 201
        diag = [r[2] for r in rows if r[0] == r[1]]
        assert len(diag) == 201
        assert all(v == 1.0 for v in diag)
        values = [r[2] for r in rows]
        assert max(values) <= 1.0

    def test_ridge_width_one_over_e(self, tmp_path):
        assert run(
            "density", "--waist", "2um", "--grid", "401", "--out", str(tmp_path)
        ) == 0
        _, rows = read_csv(tmp_path / "density.csv")
        dac = 0.4047 / (math.pi * 2.0 * 0.2800911176503974)
        best = min(rows, key=lambda r: abs(abs(r[0] - r[1]) - dac))
        assert best[2] == pytest.approx(math.exp(-1.0), abs=0.05)

    def test_too_coarse_grid_exit_code(self, capsys):
        assert run("density", "--grid", "64") == 4
        err = capsys.readouterr().err
        assert "resolution" in err


class TestSchmidt:
    def test_analytic_reference(self, tmp_path):
        assert run("schmidt", "--method", "analytic", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "schmidt_analytic.json").read_text())
        assert summary["method"] == "analytic_dg"
        assert summary["schmidt_number"] == pytest.approx(10000.16, rel=1e-4)
        assert summary["R"] == pytest.approx(summary["schmidt_number"], rel=1e-6)
        header, rows = read_csv(tmp_path / "schmidt_analytic.csv")
        assert header == ["index", "weight"]
        assert rows[0][1] > rows[1][1] > 0.0

    def test_analytic_vs_numeric_at_ratio_50(self, tmp_path):
        # w = 3.67 um makes b = a/50 at phi0 = 0.7; the numeric SVD oracle
        # must then agree with the closed form to < 1%
        w_um = 0.4047 * 50.0 / (math.pi * 0.2800911176503974 * 2.0 * math.pi)
        args = ["--waist", f"{w_um}um", "--out", str(tmp_path)]
        assert run("schmidt", "--method", "analytic", *args) == 0
        assert run("schmidt", "--method", "numeric", "--grid", "3300", *args) == 0
        k_an = json.loads((tmp_path / "schmidt_analytic.json").read_text())[
            "schmidt_number"
        ]
        k_num = json.loads((tmp_path / "schmidt_numeric.json").read_text())[
            "schmidt_number"
        ]
        assert k_an == pytest.approx(25.01, rel=1e-3)
        assert abs(k_num - k_an) / k_an < 0.01

    def test_numeric_resolution_exit_code(self, capsys):
        assert run("schmidt", "--method", "numeric", "--grid", "100") == 4
        assert "resolution" in capsys.readouterr().err

    def test_numeric_grid_over_the_memory_cap_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("schmidt", "--method", "numeric", "--grid", "100000000",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{NUMERIC_MATRICES * 8 * 10**16} bytes" in err
        assert not out.exists()

    def test_oam_summary(self, tmp_path):
        assert run("schmidt", "--method", "oam", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "schmidt_oam.json").read_text())
        assert summary["method"] == "oam"
        assert summary["closed_form_k"] == pytest.approx(5079.57, rel=1e-4)
        assert summary["schmidt_number"] == pytest.approx(7978.97, rel=1e-4)
        header, rows = read_csv(tmp_path / "schmidt_oam.csv")
        assert header == ["l", "parity", "weight"]
        assert rows[0][1] == "cos"

    def test_analytic_separable_single_line(self, tmp_path, bbo):
        # a == b requires dalpha_c = 2 pi, beyond any physical config; the
        # library covers this case directly
        from biphoton import schmidt_analytic

        sp = schmidt_analytic(0.4, 0.4)
        assert len(sp.weights) == 1 and sp.weights[0] == 1.0


class TestMultichannelCommand:
    def test_four_planes(self, tmp_path, capsys):
        assert run("multichannel", "-N", "4", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "multichannel.json").read_text())
        assert payload["K"] == pytest.approx(8.0, abs=1e-12)
        assert payload["entropy_bits"] == pytest.approx(3.0, abs=1e-12)
        assert payload["layout"]["feasible"]

    def test_infeasible_exit_code(self, capsys):
        # more planes than the packing limit of the reference ring
        assert run("multichannel", "-N", "2000") == 5
        err = capsys.readouterr().err
        assert "plane_gaps" in err

    def test_explicit_fiber_radius(self, tmp_path):
        assert run(
            "multichannel", "-N", "2", "--fiber-radius", "0.01",
            "--out", str(tmp_path),
        ) == 0
        payload = json.loads((tmp_path / "multichannel.json").read_text())
        assert payload["K"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("flag,value,message", [
        ("--fiber-radius", "0", "fiber_radius must be > 0"),
        ("--fiber-radius", "nan", "fiber_radius must be > 0"),
        ("--fiber-radius", "inf", "fiber_radius must be > 0"),
        ("--safety", "nan", "safety factor must be >= 1"),
        ("--safety", "inf", "safety factor must be >= 1"),
    ])
    def test_bad_fiber_radius_or_safety_exit_code(self, capsys, flag, value, message):
        assert run("multichannel", "-N", "2", f"{flag}={value}") == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestUnwritableOut:
    """--out naming a regular file, or a path below one, is an output
    error (exit 6), not a traceback."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("not a directory\n")
        return path

    @pytest.mark.parametrize("sub", ["", "below"])
    def test_json_command(self, blocker, capsys, sub):
        out = blocker / sub if sub else blocker
        assert run("params", "--out", str(out)) == 6
        assert "output error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("sub", ["", "below"])
    def test_csv_command(self, blocker, capsys, sub):
        out = blocker / sub if sub else blocker
        assert run("scan", "--quantity", "sincfit", "--range", "-1", "1",
                   "--points", "5", "--out", str(out)) == 6
        assert "output error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"
