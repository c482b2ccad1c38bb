"""Spans recorded from outside the program, around its public functions.

`Tracer.install` replaces each public function of the `biphoton` modules by
a wrapper that records a span: its name, start, end, the span that was open
when it was called (its parent) and the operation it belongs to. It also
wraps the names `biphoton.cli` imported into its own namespace and the
`SchmidtSpectrum.export_csv` method, so the spans nest as the calls do:
`cli.schmidt` -> `analysis.schmidt_numeric`, `amplitude.export_grid_csv` ->
`amplitude.probability_density`. Spans stay in memory until `write`.

Some spans also carry a count of the work the call did (rows, points,
modes, grid size), read from its arguments or its result.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# Span record fields, by index.
NAME, START, END, PARENT, OP, COUNT = range(6)


def _rows_of_spectrum(args, kwargs, result):
    return len(args[0].weights)


def _size_of_result(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _weights_of_result(args, kwargs, result):
    return len(result.weights)


def _numeric_grid(args, kwargs, result):
    return int(args[3] if len(args) > 3 else kwargs["n"])


def _coefficient_points(args, kwargs, result):
    l_max = args[1] if len(args) > 1 else kwargs["l_max"]
    n_quad = args[2] if len(args) > 2 else kwargs.get("n_quad", 40001)
    return (int(l_max) + 1) * int(n_quad)


def _grid_rows(args, kwargs, result):
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    dalpha = args[3] if len(args) > 3 else kwargs["dalpha"]
    return len(theta) ** 2 * len(dalpha)


# module -> {function: count or None}; span name is "<module>.<function>".
TRACED = {
    "crystal": {
        "load_crystal": None,
        "ordinary_index": None,
        "pump_index": None,
        "walkoff_slope": None,
        "cone_angle": None,
        "derive_scales": None,
    },
    "configio": {"load_run_config": None},
    "amplitude": {
        "probability_density": _size_of_result,
        "validity_report": None,
        "export_grid_csv": _grid_rows,
    },
    "analysis": {
        "azimuthal_widths": None,
        "azimuthal_density": _size_of_result,
        "schmidt_analytic": _weights_of_result,
        "schmidt_numeric": _numeric_grid,
        "oam_spectrum": _weights_of_result,
        "coefficient_check": _coefficient_points,
    },
    "multichannel": {
        "equally_spaced_layout": None,
        "validate_layout": None,
        "build_state": None,
        "multichannel_entanglement": None,
    },
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1

    def _wrap(self, owner, attr: str, name, count=None) -> None:
        fn = getattr(owner, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    open_[-1] if open_ else -1, self.op, None]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap every binding of each traced function, in its own module and
        wherever another module (`cli`, `configio`) imported it."""
        namespaces = [importlib.import_module(f"biphoton.{m}") for m in (*TRACED, "cli")]
        for mod, functions in TRACED.items():
            home = importlib.import_module(f"biphoton.{mod}")
            for fn, count in functions.items():
                original = getattr(home, fn)
                for ns in namespaces:
                    if vars(ns).get(fn) is original:
                        self._wrap(ns, fn, f"{mod}.{fn}", count)
        analysis = importlib.import_module("biphoton.analysis")
        self._wrap(analysis.SchmidtSpectrum, "export_csv", "analysis.export_csv",
                   _rows_of_spectrum)
        self._wrap(namespaces[-1], "main", lambda args: f"cli.{args[0][0]}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON object per line: name, start/end (s, perf_counter),
        parent (line index, -1 at top), op, count."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "count": s[COUNT]}) + "\n")
