"""Byte identity of the CLI's outputs.

Each command of golden/commands.txt runs in process, through cli.main, in
an empty working directory. Its exit code and the SHA-256 of its stdout,
its stderr and every file it writes must equal those recorded in
golden/expected.json. After an intended change of an output, regenerate
the record with

    PYTHONPATH=src python tests/golden/regenerate.py

and list each changed digest with its reason in CHANGES.md.

Three commands print digits that depend on the machine, and their
outputs are compared after rounding (see `coarse`). `schmidt --method
numeric` goes through LAPACK: its weights below about 1e-16 are the
eigensolver's roundoff. numpy's exp and power run SIMD code picked for the
CPU, whose last bit differs between CPUs: with numpy's AVX-512 code paths
switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"),
2 of the 401 `scan --quantity sincfit` values and 5 of the million
weights of `schmidt --method analytic --waist 1e13um` change in their
twelfth digit, and every other output keeps its digest.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from biphoton import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = [shlex.split(line) for line in (GOLDEN / "commands.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")]
# a word in the argv of each of the three commands compared after rounding
MACHINE_DEPENDENT = {"numeric", "sincfit", "1e13um"}


def machine_dependent(argv) -> bool:
    return bool(MACHINE_DEPENDENT.intersection(argv))


def run(argv, workdir: Path):
    """Exit code, stdout, stderr and {relative path: bytes} of the files
    written by one command run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {p.relative_to(workdir).as_posix(): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return code, out.getvalue(), err.getvalue(), files


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coarse(name: str, data: bytes) -> str:
    """SHA-256 of an output with its numbers rounded. A CSV gives its
    header, its row count and about 4,096 evenly spaced rows (all rows of a
    file below 8,192), each column rounded to 1e-8 of its largest
    magnitude: that absorbs LAPACK's roundoff of 5e-16 against weights of
    order 0.1. A JSON document gives its floats at 8 significant digits.
    A twelfth-digit change moves a number across such a rounding boundary
    with a chance of about 1e-4."""
    if name.endswith(".csv"):
        header, *rows = data.split(b"\r\n")[:-1]
        sample = rows[:: max(1, len(rows) // 4096)]
        fields = np.array(b",".join(sample).split(b",") if sample else []).astype(float)
        columns = fields.reshape(len(sample), header.count(b",") + 1)
        scale = np.abs(columns).max(axis=0, initial=0.0)
        rounded = np.round(columns / np.where(scale > 0, scale, 1.0) * 1e8).astype(np.int64)
        return sha256(b"%s %d %s" % (header, len(rows), rounded.tobytes()))
    try:
        doc = json.loads(data)
    except ValueError:
        return sha256(data)
    return sha256(json.dumps(_round_floats(doc), sort_keys=True).encode())


def _round_floats(doc):
    if isinstance(doc, dict):
        return {k: _round_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_round_floats(v) for v in doc]
    return float(f"{doc:.8g}") if isinstance(doc, float) else doc


def record(argv, workdir: Path) -> dict:
    """What expected.json holds for one command."""
    code, stdout, stderr, files = run(argv, workdir)
    entry = {
        "command": shlex.join(argv),
        "exit": code,
        "stdout": sha256(stdout.encode()),
        "stderr": sha256(stderr.encode()),
        "files": {name: sha256(data) for name, data in files.items()},
    }
    if machine_dependent(argv):
        entry["coarse"] = {name: coarse(name, data)
                           for name, data in [("stdout", stdout.encode()), *files.items()]}
    return entry


@pytest.fixture(scope="module")
def expected() -> dict:
    entries = json.loads((GOLDEN / "expected.json").read_text())
    return {entry["command"]: entry for entry in entries}


def test_record_lists_every_command(expected):
    assert list(expected) == [shlex.join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_outputs_match_the_record(tmp_path, expected, argv):
    want = expected[shlex.join(argv)]
    got = record(argv, tmp_path)
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert got["files"].keys() == want["files"].keys()
    if machine_dependent(argv):
        assert got["coarse"] == want["coarse"]
    else:
        assert got["stdout"] == want["stdout"]
        assert got["files"] == want["files"]
