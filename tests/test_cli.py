"""End-to-end CLI: exit codes, file schemas, determinism."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from biphoton import cli
from biphoton.analysis import NUMERIC_MATRICES, azimuthal_density, azimuthal_widths
from biphoton.cli import main
from biphoton.configio import load_run_config
from biphoton.crystal import derive_scales
from biphoton.errors import ResolutionError
from biphoton.multichannel import MAX_PLANES


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

    @pytest.mark.parametrize("argv,warned", [
        (("--length", "20um"), {"no_lambda_over_pi_L_theta0_sq", "L_threshold_um"}),
        (("--waist", "2um", "--length", "2cm"), {"L_over_8_no_LD"}),
        (("--length", "27.8um"), set()),  # L / 10 just above the 2.73 um threshold
    ])
    def test_validity_flags_warn_from_their_ratio(self, tmp_path, argv, warned):
        # a flag warns once its ratio reaches 0.1; the length threshold is
        # flagged by its ratio to L, the linearization ratio
        assert run("params", "--out", str(tmp_path), *argv) == 0
        payload = json.loads((tmp_path / "params.json").read_text())
        validity, length = payload["validity"], payload["config"]["L_um"]
        ratios = {
            "L_over_8_no_LD": validity["L_over_8_no_LD"],
            "no_lambda_over_pi_L_theta0_sq": validity["no_lambda_over_pi_L_theta0_sq"],
            "L_threshold_um": validity["L_threshold_um"] / length,
        }
        assert {k for k, v in validity["flags"].items() if v == "warn"} == warned
        assert {k for k, r in ratios.items() if r >= 0.1} == warned

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

    @pytest.mark.parametrize("argv", [
        ("params", "--grid", "300"),
        ("multichannel", "-N", "4", "--published-constants"),
        ("scan", "--quantity", "sincfit", "--range", "-1", "1", "--grid", "300"),
        ("schmidt", "--method", "oam", "--published-constants"),
    ])
    def test_flags_a_command_never_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (("schmidt", "--method", "analytic", "--grid", "300"), "--grid"),
        (("schmidt", "--method", "oam", "--grid", "300"), "--grid"),
        (("scan", "--quantity", "walkoff", "--range", "-1", "1", "--published-constants"),
         "--published-constants"),
        (("scan", "--quantity", "np_minus_no", "--range", "0.3", "2", "--published-constants"),
         "--published-constants"),
    ])
    def test_flags_a_method_or_quantity_never_reads_are_refused(self, tmp_path, capsys,
                                                                argv, flag):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"config error: {flag} is not read by this command" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (("params",), "grid"),
        (("params",), "published_constants"),
        (("multichannel", "-N", "4"), "grid"),
        (("multichannel", "-N", "4"), "published_constants"),
        (("scan", "--quantity", "sincfit", "--range", "-1", "1"), "grid"),
        (("density",), "published_constants"),
        (("schmidt", "--method", "oam"), "published_constants"),
        (("schmidt", "--method", "analytic"), "grid"),
        (("schmidt", "--method", "oam"), "grid"),
        (("scan", "--quantity", "walkoff", "--range", "-1", "1"), "published_constants"),
        (("scan", "--quantity", "np_minus_no", "--range", "0.3", "2"), "published_constants"),
    ])
    def test_config_keys_a_command_never_reads_are_refused(self, tmp_path, capsys,
                                                          argv, key):
        path = tmp_path / "run.config"
        path.write_text(f"w = 2um\n{key} = {'300' if key == 'grid' else 'true'}\n")
        out = tmp_path / "out"
        assert run(*argv, "--config", str(path), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"{path}:2: key {key!r} is not read by this command" in captured.err
        assert captured.out == "" and not out.exists()

    def test_config_keys_a_command_reads_are_accepted(self, tmp_path):
        # 219 points is the smallest numeric grid at 0.25 um, above the default 201
        grid = tmp_path / "grid.config"
        grid.write_text("w = 0.25um\ngrid = 219\n")
        assert run("schmidt", "--method", "numeric", "--config", str(grid),
                   "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "schmidt_numeric.json").read_text())
        assert summary["n_modes"] == 219
        assert run("density", "--config", str(grid), "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 219 * 219
        published = tmp_path / "published.config"
        published.write_text("published_constants = true\n")
        assert run("scan", "--quantity", "sincfit", "--range", "-3", "3", "--points", "61",
                   "--config", str(published), "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "scan_sincfit.csv")
        x, y = np.array(rows).T
        assert np.max(np.abs(y - (np.sinc(x / math.pi) ** 2 - np.exp(-0.395 * x * x)))) < 1e-11


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

    def test_published_constants_sincfit_scan(self, tmp_path):
        assert run(
            "scan", "--quantity", "sincfit", "--range", "-3", "3", "--points", "61",
            "--published-constants", "--out", str(tmp_path),
        ) == 0
        header, rows = read_csv(tmp_path / "scan_sincfit.csv")
        assert header == ["x", "sinc_sq_minus_gauss"]
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        assert np.max(np.abs(y - (np.sinc(x / math.pi) ** 2 - np.exp(-0.395 * x * x)))) < 1e-11

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "scan", "--quantity", "sincfit", "--range", "-3", "3",
                "--out", str(out),
            ) == 0
        assert (a / "scan_sincfit.csv").read_bytes() == (b / "scan_sincfit.csv").read_bytes()

    @pytest.mark.parametrize("lo", ["-1e-3", "-1.5E+2", "-.5", "-1"])
    def test_negative_lo_is_a_number(self, tmp_path, lo):
        # argparse alone reads -1e-3 and -1.5E+2 as options, not numbers
        assert run(
            "scan", "--quantity", "walkoff", "--range", lo, "1",
            "--points", "3", "--out", str(tmp_path),
        ) == 0
        _, rows = read_csv(tmp_path / "scan_walkoff.csv")
        assert len(rows) == 3 and rows[0][0] == float(lo) and rows[-1][0] == 1.0

    @pytest.mark.parametrize("bounds,points,message", [
        (("nan", "1"), "3", "--range needs finite LO < HI"),
        (("0", "inf"), "3", "--range needs finite LO < HI"),
        (("1", "0"), "3", "--range needs finite LO < HI"),
        (("1", "1"), "3", "--range needs finite LO < HI"),
        (("0", "1"), "0", "--points must be >= 2"),
        (("0", "1"), "-1", "--points must be >= 2"),
        (("0", "1"), "1", "--points must be >= 2"),
        ((" -1e308", "1e308"), "3", "--range needs finite LO < HI and HI - LO"),
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

    @pytest.mark.parametrize("over", [1, 10**12])
    def test_points_over_the_row_limit_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 over):
        # refused before the axis is allocated or a file opened
        def never(*args, **kwargs):
            raise AssertionError("write_csv reached")

        monkeypatch.setattr(cli, "write_csv", never)
        out = tmp_path / "out"
        assert run("scan", "--quantity", "sincfit", "--range", "0", "1",
                   "--points", str(cli.MAX_CSV_ROWS + over), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"above the limit of {cli.MAX_CSV_ROWS} rows" in captured.err
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

    def test_bytes_match_per_row_csv_writer(self, tmp_path, csv_reference):
        # the map as csv.writer writes it from one azimuthal_density call per
        # alpha1 row, each field formatted on its own
        assert run(
            "density", "--waist", "8um", "--grid", "240", "--out", str(tmp_path)
        ) == 0
        cfg = load_run_config(None, w=8.0)
        dist = azimuthal_widths(derive_scales(cfg.experiment()))
        alpha = np.linspace(-math.pi / 2, math.pi / 2, 240)
        rows = ([float(a1), a2, d] for a1 in alpha for a2, d in
                zip(alpha.tolist(), azimuthal_density(dist, a1, alpha).tolist()))
        expected = csv_reference(["alpha1", "alpha2", "density"], rows)
        assert (tmp_path / "density.csv").read_bytes() == expected

    def test_too_coarse_grid_exit_code(self, capsys):
        assert run("density", "--grid", "64") == 4
        err = capsys.readouterr().err
        assert "resolution" in err

    @pytest.mark.parametrize("waist", ["2um", "5um", "8um"])
    def test_required_points_is_enough(self, tmp_path, capsys, waist):
        with pytest.raises(ResolutionError) as exc:
            cli.cmd_density(cli.build_parser().parse_args(
                ["density", "--waist", waist, "--grid", "9"]))
        required = exc.value.required_points
        assert f"need at least {required}" in str(exc.value)
        assert run("density", "--waist", waist, "--grid", str(required),
                   "--out", str(tmp_path)) == 0
        assert run("density", "--waist", waist, "--grid", str(required - 1)) == 4

    @pytest.mark.parametrize("grid", [math.isqrt(cli.MAX_CSV_ROWS) + 1, 10**6])
    def test_grid_over_the_row_limit_exit_code(self, tmp_path, capsys, monkeypatch,
                                               grid):
        def never(*args, **kwargs):
            raise AssertionError("write_csv reached")

        monkeypatch.setattr(cli, "write_csv", never)
        out = tmp_path / "out"
        assert run("density", "--waist", "2um", "--grid", str(grid),
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"makes {grid * grid} rows, above the limit" in captured.err
        assert captured.out == ""
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [(), ("--waist", "5um")])
    def test_params_prints_the_oam_closed_form(self, tmp_path, argv):
        # params and schmidt --method oam print one closed form, bit for bit
        assert run("params", "--out", str(tmp_path), *argv) == 0
        assert run("schmidt", "--method", "oam", "--out", str(tmp_path), *argv) == 0
        params = json.loads((tmp_path / "params.json").read_text())
        oam = json.loads((tmp_path / "schmidt_oam.json").read_text())
        assert params["entanglement"]["K_oam_closed_form"] == oam["closed_form_k"]

    @pytest.mark.parametrize("argv,flag", [((), "pass"), (("--waist", "2um"), "warn")])
    def test_params_flags_the_oam_closed_form_regime(self, tmp_path, argv, flag):
        # the flag warns exactly where schmidt --method oam refuses the ridge
        assert run("params", "--out", str(tmp_path), *argv) == 0
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["entanglement"]["flags"] == {"K_oam_closed_form": flag}
        code = run("schmidt", "--method", "oam", "--out", str(tmp_path), *argv)
        assert code == (0 if flag == "pass" else cli.EXIT_REGIME)

    def test_analytic_truncation_is_reported_in_the_json(self, tmp_path, capfd):
        # a 2 cm waist needs more than MODE_CAP modes: the cap shows only as
        # "truncated" in the summary, with no warning and nothing on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("schmidt", "--method", "analytic", "--waist", "2cm",
                       "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "schmidt_analytic.json").read_text())
        assert summary["truncated"] is True
        assert summary["n_modes"] == 1_000_000
        assert capfd.readouterr().err == ""

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
        assert set(payload["layout"]) == {"feasible", "constraints", "max_adjacent_overlap"}
        assert payload["layout"]["constraints"]["plane_gaps"]["min_gap_rad"] == math.pi / 4

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

    @pytest.mark.parametrize("over", [1, 10**12])
    def test_plane_count_over_the_limit_exit_code(self, tmp_path, capsys, monkeypatch,
                                                  over):
        # refused before any layout is built: building one would fail here
        def never(*args, **kwargs):
            raise AssertionError("equally_spaced_layout reached")

        monkeypatch.setattr(cli, "equally_spaced_layout", never)
        n = MAX_PLANES + over
        assert run("multichannel", "-N", str(n), "--out", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert f"limit of {MAX_PLANES} planes" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_plane_count_at_the_limit_builds_the_layout(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(n, *args, **kwargs):
            assert n == MAX_PLANES
            raise Reached

        monkeypatch.setattr(cli, "equally_spaced_layout", reached)
        with pytest.raises(Reached):
            run("multichannel", "-N", str(MAX_PLANES))


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
