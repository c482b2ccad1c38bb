"""Per-layer metrics of a traced run, computed from its spans.

Counts are per round of the workload's operations, so for one seed they
repeat exactly however many rounds a run completes. A metric of a function
that the workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import COUNT, END, NAME, PARENT, START

CLI_COMMANDS = ("params", "scan", "density", "schmidt", "multichannel")

# name, unit, better
METRICS = [
    ("analysis.export_csv.rows", "rows", "lower"),
    ("analysis.export_csv.rows_per_s", "rows/s", "higher"),
    *[(f"cli.{c}.{m}", "ms", "lower") for c in CLI_COMMANDS for m in ("p50_ms", "self_ms")],
    ("cli.density.rows_per_s", "rows/s", "higher"),
    ("cli.rows_written", "rows", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("amplitude.export_grid_csv.rows", "rows", "lower"),
    ("amplitude.export_grid_csv.rows_per_s", "rows/s", "higher"),
    ("amplitude.export_grid_csv.self_ms", "ms", "lower"),
    ("amplitude.probability_density.calls", "count", "lower"),
    ("amplitude.probability_density.points", "points", "lower"),
    ("amplitude.probability_density.ns_per_point", "ns", "lower"),
    ("analysis.schmidt_numeric.n", "points", "lower"),
    ("analysis.schmidt_numeric.p50_ms", "ms", "lower"),
    ("analysis.schmidt_numeric.gflops", "GFLOP/s-computed", "higher"),
    ("analysis.coefficient_check.points", "points", "lower"),
    ("analysis.coefficient_check.p50_ms", "ms", "lower"),
    ("analysis.schmidt_analytic.p50_ms", "ms", "lower"),
    ("analysis.schmidt_analytic.modes", "modes", "lower"),
    ("analysis.oam_spectrum.p50_ms", "ms", "lower"),
    ("analysis.oam_spectrum.modes", "modes", "lower"),
    ("analysis.azimuthal_density.calls", "count", "lower"),
    ("analysis.azimuthal_density.ns_per_point", "ns", "lower"),
    ("crystal.derive_scales.p50_us", "us", "lower"),
    ("crystal.pump_index.calls", "count", "lower"),
    ("crystal.pump_index.p50_us", "us", "lower"),
    ("configio.load_run_config.p50_us", "us", "lower"),
    ("multichannel.validate_layout.p50_us", "us", "lower"),
    ("multichannel.build_state.p50_us", "us", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
]


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)
            if s[PARENT] >= 0:
                self.child[s[PARENT]] += s[END] - s[START]

    def durations(self, name):
        return [self.spans[i][END] - self.spans[i][START] for i in self.by_name[name]]

    def p50(self, name, scale):
        d = self.durations(name)
        return statistics.median(d) * scale if d else 0.0

    def self_p50_ms(self, name):
        idx = self.by_name[name]
        own = [self.spans[i][END] - self.spans[i][START] - self.child[i] for i in idx]
        return statistics.median(own) * 1e3 if own else 0.0

    def total(self, name):
        return sum(self.durations(name))

    def counts(self, name):
        return [self.spans[i][COUNT] for i in self.by_name[name]]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(spans, records, rounds: int, busy_s: float) -> dict:
    """{name: value} for every entry of METRICS.

    `records` holds one ops.Record per operation of the timed phase.
    """
    s = _Spans(spans)
    per_round = 1.0 / rounds
    v = {}
    rows = sum(s.counts("analysis.export_csv"))
    v["analysis.export_csv.rows"] = rows * per_round
    v["analysis.export_csv.rows_per_s"] = _ratio(rows, s.total("analysis.export_csv"))
    for c in CLI_COMMANDS:
        v[f"cli.{c}.p50_ms"] = s.p50(f"cli.{c}", 1e3)
        v[f"cli.{c}.self_ms"] = s.self_p50_ms(f"cli.{c}")
    cli_records = [r for r in records if r.cli]
    density_rows = sum(r.rows for r in records if r.kind == "density")
    v["cli.density.rows_per_s"] = _ratio(density_rows, s.total("cli.density"))
    v["cli.rows_written"] = sum(r.rows for r in cli_records) * per_round
    v["cli.bytes_written"] = sum(r.written for r in cli_records) * per_round
    name = "amplitude.export_grid_csv"
    rows = sum(s.counts(name))
    v[f"{name}.rows"] = rows * per_round
    v[f"{name}.rows_per_s"] = _ratio(rows, s.total(name))
    v[f"{name}.self_ms"] = s.self_p50_ms(name)
    for name in ("amplitude.probability_density", "analysis.azimuthal_density"):
        points = sum(s.counts(name))
        v[f"{name}.calls"] = len(s.by_name[name]) * per_round
        v[f"{name}.ns_per_point"] = _ratio(s.total(name) * 1e9, points)
    v["amplitude.probability_density.points"] = (
        sum(s.counts("amplitude.probability_density")) * per_round)
    name = "analysis.schmidt_numeric"
    grids = s.counts(name)
    v[f"{name}.n"] = statistics.median(grids) if grids else 0
    v[f"{name}.p50_ms"] = s.p50(name, 1e3)
    # computed, not counted: (4/3) n^3 for a dense symmetric eigensolve
    flops = sum(4.0 / 3.0 * n**3 for n in grids)
    v[f"{name}.gflops"] = _ratio(flops / 1e9, s.total(name))
    name = "analysis.coefficient_check"
    v[f"{name}.points"] = sum(s.counts(name)) * per_round
    v[f"{name}.p50_ms"] = s.p50(name, 1e3)
    for name in ("analysis.schmidt_analytic", "analysis.oam_spectrum"):
        modes = s.counts(name)
        v[f"{name}.p50_ms"] = s.p50(name, 1e3)
        v[f"{name}.modes"] = statistics.median(modes) if modes else 0
    v["crystal.derive_scales.p50_us"] = s.p50("crystal.derive_scales", 1e6)
    v["crystal.pump_index.calls"] = len(s.by_name["crystal.pump_index"]) * per_round
    v["crystal.pump_index.p50_us"] = s.p50("crystal.pump_index", 1e6)
    v["configio.load_run_config.p50_us"] = s.p50("configio.load_run_config", 1e6)
    v["multichannel.validate_layout.p50_us"] = s.p50("multichannel.validate_layout", 1e6)
    v["multichannel.build_state.p50_us"] = s.p50("multichannel.build_state", 1e6)
    v["trace.ops_per_s"] = _ratio(sum(not r.failed for r in records), busy_s)
    v["trace.spans"] = len(spans) * per_round
    return v
