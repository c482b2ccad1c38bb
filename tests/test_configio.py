"""The shared CSV writer, byte-for-byte equal to csv.writer on the same
values, and the key = value reader behind crystal and run-config files."""

import itertools
import sys

import numpy as np
import pytest

from biphoton.configio import CSV_BLOCK_ROWS, write_csv
from biphoton.crystal import read_key_values

N = CSV_BLOCK_ROWS
F = "%.12g"


def written_bytes(tmp_path, header, axes, values) -> bytes:
    path = tmp_path / "written.csv"
    write_csv(path, header, axes, values)
    return path.read_bytes()


def float_body(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    return x, np.cumsum(rng.random(n))


def product_rows(axes, values):
    """The rows of a product table, built the slow way: one list per row,
    the axes' fields in C order, then the value."""
    columns = [list(zip(*(np.asarray(c).tolist() for _, c in axis))) for axis in axes]
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return [[*sum(coords, ()), v]
            for coords, v in zip(itertools.product(*columns), flat, strict=True)]


class TestWriteCsv:
    def test_all_float_body(self, tmp_path, csv_reference):
        x, y = float_body(1000)
        expected = csv_reference(["x", "y"], zip(x.tolist(), y.tolist()))
        got = written_bytes(tmp_path, ("x", "y"), [[(F, x)]], [y])
        assert got == expected

    def test_int_str_float_body(self, tmp_path, csv_reference):
        # the OAM layout: l, parity, weight
        l_max = 700
        ls = np.concatenate(([0], np.repeat(np.arange(1, l_max + 1), 2)))
        parity = np.array(["cos"] + ["cos", "sin"] * l_max)
        w = np.exp(-(ls.astype(float) ** 2) * 1e-4)
        w /= w.sum()
        expected = csv_reference(
            ["l", "parity", "weight"],
            ([int(l), str(p), float(v)] for l, p, v in zip(ls, parity, w)),
        )
        got = written_bytes(tmp_path, ("l", "parity", "weight"),
                            [[("%d", ls), ("%s", parity)]], [w])
        assert got == expected

    @pytest.mark.parametrize("n", [N - 1, N, N + 1, 2 * N + 1])
    def test_bodies_around_the_block_size(self, tmp_path, csv_reference, n):
        _, w = float_body(n, seed=n)
        index = np.arange(n)
        expected = csv_reference(["index", "weight"], zip(index.tolist(), w.tolist()))
        got = written_bytes(tmp_path, ("index", "weight"), [[("%d", range(n))]], [w])
        assert got == expected
        assert got.count(b"\r\n") == n + 1

    def test_range_columns(self, tmp_path, csv_reference):
        # ranges that do not start at 0, step by more than 1 and run across
        # a block boundary, in the last axis and in an outer one
        _, w = float_body(2 * N + 3)
        index = range(-5, 4 * N + 1, 2)
        expected = csv_reference(["index", "weight"], zip(index, w.tolist()))
        assert written_bytes(tmp_path, ("index", "weight"), [[("%d", index)]], [w]) == expected
        outer, inner = range(7, 10), range(N - 2, N + 3)
        values = np.arange(15.0).reshape(3, 5) / 3.0
        axes = [[("%d", outer)], [("%d", inner)]]
        expected = csv_reference(["o", "i", "v"], product_rows(axes, values))
        assert written_bytes(tmp_path, ("o", "i", "v"), axes, values) == expected

    def test_body_split_across_blocks(self, tmp_path, csv_reference):
        # an inner axis three blocks long under each of three prefixes: the
        # blocks' text is reused, and an array's rows, a list and a generator
        # of rows give the same bytes
        x, y = float_body(3 * N + 17)
        outer = np.array([-1.5, 0.0, 2.5])
        values = np.outer(outer, y)
        axes = [[(F, outer)], [(F, x)]]
        expected = csv_reference(["o", "x", "v"], product_rows(axes, values))
        for rows in (values, list(values), (r for r in values)):
            assert written_bytes(tmp_path, ("o", "x", "v"), axes, rows) == expected

    def test_blocks_from_a_generator(self, tmp_path, csv_reference):
        # the density layout: one block of values per alpha1, computed as it
        # is written
        alpha = np.linspace(-1.0, 1.0, 37)
        expected = csv_reference(
            ["a1", "a2", "d"],
            ([a1, a2, float(np.exp(-(a1 - a2) ** 2))]
             for a1 in alpha.tolist() for a2 in alpha.tolist()),
        )
        rows = (np.exp(-(a1 - alpha) ** 2) for a1 in alpha)
        axis = [(F, alpha)]
        got = written_bytes(tmp_path, ("a1", "a2", "d"), [axis, axis], rows)
        assert got == expected

    @pytest.mark.parametrize("blocks", [[], [np.zeros(0)]])
    def test_zero_row_body_is_header_only(self, tmp_path, csv_reference, blocks):
        # no value rows under an empty outer axis, or the one empty row of
        # an empty single axis
        axes = [[(F, np.zeros(0))]]
        if not blocks:
            axes.append([(F, np.ones(3))])
        expected = csv_reference(["x", "y"], [])
        got = written_bytes(tmp_path, ("x", "y"), axes, blocks)
        assert got == expected == b"x,y\r\n"

    def test_signed_zero_tiny_and_subnormal_values(self, tmp_path, csv_reference):
        tiny = sys.float_info.min
        values = np.array([-0.0, 0.0, 1e-300, -1e-300, tiny, tiny / 3.0, 5e-324,
                           -5e-324, 1e300, 0.1 + 0.2, 123456789012345.0, 1.0 / 3.0])
        index = np.arange(values.size)
        expected = csv_reference(["index", "value"], zip(index.tolist(), values.tolist()))
        got = written_bytes(tmp_path, ("index", "value"), [[("%d", index)]], [values])
        assert got == expected
        lines = got.decode().split("\r\n")
        assert lines[1] == "0,-0"
        assert lines[3] == "2,1e-300"
        assert lines[7] == "6,4.94065645841e-324"


def special_floats() -> np.ndarray:
    """Values whose "%.12g" tests the edges of the writer's float path:
    signed zeros, subnormals, the ends of its fast range, inf, nan, both
    neighbours of every power of ten, 12-digit ties k + 1/2 and 13-digit
    ties 10 k + 5, which round half to even, and their neighbours."""
    tiny = sys.float_info.min
    fixed = [0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3.0, -tiny / 7.0, 1e-280, -1e-280,
             1e280, 9.9999999999995e279, 1.0000000000005e280, sys.float_info.max,
             -sys.float_info.max, np.inf, -np.inf, np.nan, 0.5, 1.0, 9.5, 99999999999.5,
             999999999999.5, 999999999999.4, 0.1 + 0.2, 1.0 / 3.0, 1e-4, 1e-5, 1e11, 1e12]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(11)
    k = rng.integers(10**11, 10**12, 2000).astype(float)
    ties = np.concatenate([k + 0.5, 10.0 * k + 5.0, k + 0.25, 10.0 * k + 4.0])
    # mantissas within a rounding error of a tie, and 1e-3 to 2e-3 from one,
    # inside and at the edge of the writer's fallback
    scale = 10.0 ** rng.integers(-290, 270, k.size)
    near = np.concatenate([(k + 0.5) * scale, (k + 0.5 + rng.choice([-1.0, 1.0], k.size)
                                               * rng.uniform(1e-3, 2e-3, k.size)) * scale])
    return np.concatenate([
        fixed, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
        ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), near])


class TestFieldsMatchPython:
    """Each field format against Python's own `%` on the same values."""

    def test_floats(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 60_000
        random = rng.random(n) * 10.0 ** rng.integers(-320, 301, n) * rng.choice([-1, 1], n)
        x = np.concatenate([special_floats(), random])
        y = np.roll(x, 1)
        expected = b"x,y\r\n" + b"".join(b"%.12g,%.12g\r\n" % p for p in zip(x.tolist(), y.tolist()))
        assert written_bytes(tmp_path, ("x", "y"), [[(F, x)]], [y]) == expected

    def test_mostly_zero_rows(self, tmp_path):
        # the density layout, where most values are exact zeros
        rng = np.random.default_rng(13)
        values = rng.standard_normal((40, 300)) * (rng.random((40, 300)) < 0.05)
        values[::3] *= -0.0
        alpha = np.linspace(-1.0, 1.0, 300)
        axes = [[(F, alpha[:40])], [(F, alpha)]]
        expected = b"a,b,v\r\n" + b"".join(
            b"%.12g,%.12g,%.12g\r\n" % (a, b, v) for (a, b), v in
            zip(itertools.product(alpha[:40].tolist(), alpha.tolist()), values.ravel().tolist()))
        assert written_bytes(tmp_path, ("a", "b", "v"), axes, values) == expected

    def test_integers_and_strings(self, tmp_path):
        rng = np.random.default_rng(14)
        edges = [0, 1, 9, 10, 99, 100, -1, -9, -10, 10**12, -(10**12), 10**16 - 1, 10**16,
                 -(10**16), 2**63 - 1, -(2**63)]
        edges += [10**k + d for k in range(1, 16) for d in (-1, 0)]
        ints = np.concatenate([edges, rng.integers(0, 10**12, 20_000, endpoint=True),
                               rng.integers(-(10**12), 0, 5_000)])
        words = np.array(["50%", "%d", "%%", "a%sb", "%.12g", "cos", "", "x" * 20, "μm"])
        names = words[rng.integers(0, len(words), len(ints))]
        v = rng.standard_normal(len(ints))
        expected = b"i,s,v\r\n" + b"".join(
            ("%d,%s,%.12g\r\n" % row).encode()
            for row in zip(ints.tolist(), names.tolist(), v.tolist()))
        got = written_bytes(tmp_path, ("i", "s", "v"), [[("%d", ints), ("%s", names)]], [v])
        assert got == expected
        ascii_only = names != "μm"
        got = written_bytes(tmp_path, ("i", "s", "v"),
                            [[("%d", ints[ascii_only]), ("%s", names[ascii_only])]],
                            [v[ascii_only]])
        assert got == b"i,s,v\r\n" + b"".join(
            ("%d,%s,%.12g\r\n" % row).encode() for row in
            zip(ints[ascii_only].tolist(), names[ascii_only].tolist(), v[ascii_only].tolist()))


class TestProductTables:
    @pytest.mark.parametrize("shape", [(5,), (4, 7), (3, 2, 6)])
    def test_one_two_and_three_axes(self, tmp_path, csv_reference, shape):
        rng = np.random.default_rng(len(shape))
        axes = [[(F, rng.standard_normal(n))] for n in shape]
        values = rng.standard_normal(shape)
        header = [f"c{i}" for i in range(len(shape) + 1)]
        expected = csv_reference(header, product_rows(axes, values))
        rows = values.reshape(-1, shape[-1])
        assert written_bytes(tmp_path, header, axes, rows) == expected
        assert expected.count(b"\r\n") == 1 + values.size

    def test_two_column_axes(self, tmp_path, csv_reference):
        # the export_grid_csv layout, with an outer axis of two columns too
        rng = np.random.default_rng(3)
        outer = [("%d", np.arange(3)), ("%s", np.array(["a", "b", "c"]))]
        inner = [(F, rng.standard_normal(5)), (F, rng.standard_normal(5))]
        values = rng.standard_normal((3, 5))
        axes = [outer, inner]
        header = ["k", "name", "a1", "a2", "v"]
        expected = csv_reference(header, product_rows(axes, values))
        assert written_bytes(tmp_path, header, axes, values) == expected

    @pytest.mark.parametrize("n", [N - 1, N, N + 1, 2 * N + 1])
    def test_inner_axis_around_the_block_size(self, tmp_path, csv_reference, n):
        x, y = float_body(n, seed=n)
        outer = np.array([0.25, -7.0])
        values = np.stack([y, -y])
        axes = [[(F, outer)], [("%d", range(n)), (F, x)]]
        expected = csv_reference(["o", "i", "x", "v"], product_rows(axes, values))
        got = written_bytes(tmp_path, ("o", "i", "x", "v"), axes, values)
        assert got == expected
        assert got.count(b"\r\n") == 2 * n + 1

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_an_empty_axis_gives_no_rows(self, tmp_path, csv_reference, empty):
        shape = [2, 3, 4]
        shape[empty] = 0
        axes = [[(F, np.arange(n, dtype=float))] for n in shape]
        values = np.zeros((shape[0] * shape[1], shape[2]))
        got = written_bytes(tmp_path, ("a", "b", "c", "v"), axes, values)
        assert got == csv_reference(["a", "b", "c", "v"], []) == b"a,b,c,v\r\n"

    def test_percent_in_string_fields(self, tmp_path, csv_reference):
        # axis text goes into a %-template; a literal % must come out as one %
        names = np.array(["50%", "%d", "%%", "a%sb", "%.12g"])
        values = np.arange(25.0).reshape(5, 5) / 7.0
        axes = [[("%s", names)], [("%s", names[::-1]), ("%d", range(5))]]
        expected = csv_reference(["p", "q", "i", "v"], product_rows(axes, values))
        got = written_bytes(tmp_path, ("p", "q", "i", "v"), axes, values)
        assert got == expected
        assert got.split(b"\r\n")[1] == b"50%,%.12g,0,0"

    def test_extreme_values_in_axes_and_value_column(self, tmp_path, csv_reference):
        extremes = np.array([-0.0, 1e-300, 5e-324, sys.float_info.min / 3.0,
                             np.inf, -np.inf])
        values = extremes[np.add.outer(np.arange(6), np.arange(6)) % 6]
        axes = [[(F, extremes)], [(F, extremes[::-1])]]
        expected = csv_reference(["a", "b", "v"], product_rows(axes, values))
        got = written_bytes(tmp_path, ("a", "b", "v"), axes, values)
        assert got == expected
        assert got.split(b"\r\n")[1] == b"-0,-inf,-0"
        assert b"\r\ninf,-inf,inf\r\n" in got

    @pytest.mark.parametrize("values", [[np.zeros(2)], [np.zeros(4)],
                                        [np.zeros(3), np.zeros(3)]])
    def test_value_rows_must_match_the_axes(self, tmp_path, values):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ("x", "v"), [[(F, np.zeros(3))]], values)


class TestReadKeyValues:
    def test_comments_blanks_and_line_numbers(self):
        text = "# header\n\n  w = 2um  \nL=0.5cm\n# w = 9um\nw = 3um\n"
        assert read_key_values(text, "x.config") == {"w": (6, "3um"), "L": (4, "0.5cm")}

    def test_value_keeps_later_equals_signs(self):
        assert read_key_values("provenance = a=b\n", "x") == {"provenance": (1, "a=b")}
