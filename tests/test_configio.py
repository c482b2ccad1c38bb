"""The shared CSV writer, byte-for-byte equal to csv.writer on the same
values, and the key = value reader behind crystal and run-config files."""

import csv
import sys

import numpy as np
import pytest

from biphoton.configio import CSV_BLOCK_ROWS, write_csv
from biphoton.crystal import read_key_values

N = CSV_BLOCK_ROWS


def reference_bytes(tmp_path, header, rows) -> bytes:
    """What csv.writer writes for `rows`, floats formatted as f'{v:.12g}'."""
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return path.read_bytes()


def written_bytes(tmp_path, header, formats, blocks) -> bytes:
    path = tmp_path / "written.csv"
    write_csv(path, header, formats, blocks)
    return path.read_bytes()


def float_body(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    return x, np.cumsum(rng.random(n))


class TestWriteCsv:
    def test_all_float_body(self, tmp_path):
        x, y = float_body(1000)
        expected = reference_bytes(tmp_path, ["x", "y"], zip(x.tolist(), y.tolist()))
        got = written_bytes(tmp_path, ("x", "y"), ("%.12g", "%.12g"), [(x, y)])
        assert got == expected

    def test_int_str_float_body(self, tmp_path):
        # the OAM layout: l, parity, weight
        l_max = 700
        ls = np.concatenate(([0], np.repeat(np.arange(1, l_max + 1), 2)))
        parity = np.array(["cos"] + ["cos", "sin"] * l_max)
        w = np.exp(-(ls.astype(float) ** 2) * 1e-4)
        w /= w.sum()
        expected = reference_bytes(
            tmp_path, ["l", "parity", "weight"],
            ([int(l), str(p), float(v)] for l, p, v in zip(ls, parity, w)),
        )
        got = written_bytes(tmp_path, ("l", "parity", "weight"), ("%d", "%s", "%.12g"),
                            [(ls, parity, w)])
        assert got == expected

    @pytest.mark.parametrize("n", [N - 1, N, N + 1, 2 * N + 1])
    def test_bodies_around_the_block_size(self, tmp_path, n):
        _, w = float_body(n, seed=n)
        index = np.arange(n)
        expected = reference_bytes(tmp_path, ["index", "weight"],
                                   zip(index.tolist(), w.tolist()))
        got = written_bytes(tmp_path, ("index", "weight"), ("%d", "%.12g"), [(index, w)])
        assert got == expected
        assert got.count(b"\r\n") == n + 1

    def test_body_split_across_blocks(self, tmp_path):
        x, y = float_body(3 * N + 17)
        cuts = [0, 5, 5, N + 3, 2 * N + 3, 3 * N + 17]  # one block is empty
        blocks = [(x[a:b], y[a:b]) for a, b in zip(cuts, cuts[1:])]
        expected = reference_bytes(tmp_path, ["x", "y"], zip(x.tolist(), y.tolist()))
        assert written_bytes(tmp_path, ("x", "y"), ("%.12g", "%.12g"), blocks) == expected
        whole = written_bytes(tmp_path, ("x", "y"), ("%.12g", "%.12g"), [(x, y)])
        assert whole == expected

    def test_blocks_from_a_generator(self, tmp_path):
        alpha = np.linspace(-1.0, 1.0, 37)
        expected = reference_bytes(
            tmp_path, ["a1", "a2", "d"],
            ([a1, a2, float(np.exp(-(a1 - a2) ** 2))]
             for a1 in alpha.tolist() for a2 in alpha.tolist()),
        )
        blocks = ((np.full(alpha.size, a1), alpha, np.exp(-(a1 - alpha) ** 2))
                  for a1 in alpha)
        got = written_bytes(tmp_path, ("a1", "a2", "d"), ("%.12g",) * 3, blocks)
        assert got == expected

    @pytest.mark.parametrize("blocks", [[], [(np.zeros(0), np.zeros(0))]])
    def test_zero_row_body_is_header_only(self, tmp_path, blocks):
        expected = reference_bytes(tmp_path, ["x", "y"], [])
        got = written_bytes(tmp_path, ("x", "y"), ("%.12g", "%.12g"), blocks)
        assert got == expected == b"x,y\r\n"

    def test_signed_zero_tiny_and_subnormal_values(self, tmp_path):
        tiny = sys.float_info.min
        values = np.array([-0.0, 0.0, 1e-300, -1e-300, tiny, tiny / 3.0, 5e-324,
                           -5e-324, 1e300, 0.1 + 0.2, 123456789012345.0, 1.0 / 3.0])
        index = np.arange(values.size)
        expected = reference_bytes(tmp_path, ["index", "value"],
                                   zip(index.tolist(), values.tolist()))
        got = written_bytes(tmp_path, ("index", "value"), ("%d", "%.12g"),
                            [(index, values)])
        assert got == expected
        lines = got.decode().split("\r\n")
        assert lines[1] == "0,-0"
        assert lines[3] == "2,1e-300"
        assert lines[7] == "6,4.94065645841e-324"


class TestReadKeyValues:
    def test_comments_blanks_and_line_numbers(self):
        text = "# header\n\n  w = 2um  \nL=0.5cm\n# w = 9um\nw = 3um\n"
        assert read_key_values(text, "x.config") == {"w": (6, "3um"), "L": (4, "0.5cm")}

    def test_value_keeps_later_equals_signs(self):
        assert read_key_values("provenance = a=b\n", "x") == {"provenance": (1, "a=b")}
