"""Unit tests for the benchmark support modules (workloads, timing,
reporting) — the harness itself must be trustworthy."""

import pytest

from repro.bench.reporting import format_kb, format_ms, format_table
from repro.bench.timing import Measurement, measure
from repro.bench.workloads import (
    FIGURE_SIZES,
    make_member,
    members_for_size,
    response_v1_from_v2,
    response_v2,
    response_v2_of_size,
)
from repro.echo.protocol import RESPONSE_V1, RESPONSE_V2
from repro.pbio.encode import native_size


class TestWorkloads:
    def test_members_are_deterministic(self):
        assert make_member(7) == make_member(7)
        assert make_member(7) != make_member(8)

    def test_role_densities(self):
        members = [make_member(i) for i in range(300)]
        sources = sum(1 for m in members if m["is_Source"])
        sinks = sum(1 for m in members if m["is_Sink"])
        assert sources == 200  # 2/3
        assert sinks == 150  # 1/2

    def test_records_validate(self):
        record = response_v2(5)
        RESPONSE_V2.validate_record(record)
        RESPONSE_V1.validate_record(response_v1_from_v2(record))

    @pytest.mark.parametrize("target", sorted(FIGURE_SIZES.values()))
    def test_sizes_within_tolerance(self, target):
        record = response_v2_of_size(target)
        actual = native_size(RESPONSE_V2, record)
        # within one member entry of the target (and never absurdly off)
        assert abs(actual - target) < 120 or actual / target > 0.85

    def test_members_for_size_monotone(self):
        counts = [members_for_size(t) for t in (100, 1_000, 10_000, 100_000)]
        assert counts == sorted(counts)
        assert counts[0] >= 1

    def test_v1_reference_rollback_counts(self):
        record = response_v2(6)
        v1 = response_v1_from_v2(record)
        assert v1["src_count"] == len(v1["src_list"])
        assert v1["sink_count"] == len(v1["sink_list"])
        assert v1["member_count"] == 6
        assert all("is_Source" not in m for m in v1["member_list"])


class TestTiming:
    def test_measure_returns_sane_numbers(self):
        result = measure(lambda: sum(range(100)), rounds=3, number=50)
        assert isinstance(result, Measurement)
        assert 0 < result.best <= result.mean
        assert result.rounds == 3 and result.number == 50
        assert result.best_ms == result.best * 1e3

    def test_autocalibration_picks_a_number(self):
        result = measure(lambda: None, rounds=2)
        assert result.number >= 1

    def test_slow_callable_low_iteration_count(self):
        import time

        result = measure(lambda: time.sleep(0.01), rounds=2)
        assert result.number <= 8
        assert result.best >= 0.009


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert "bbbb" in lines[3]

    def test_format_ms_precision_bands(self):
        assert format_ms(0.250) == "250"
        assert format_ms(0.0042) == "4.20"
        assert format_ms(0.0000042) == "0.0042"

    def test_format_kb_bands(self):
        assert format_kb(250_000) == "250"
        assert format_kb(2_500) == "2.5"
        assert format_kb(120) == "0.12"


class TestFigureFunctions:
    def test_fig8_rows_have_shape(self):
        from repro.bench.figures import fig8_encoding

        rows = fig8_encoding({"1KB": 1_000}, rounds=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.label == "1KB"
        assert row.ratio == row.xml.best / row.pbio.best

    def test_table1_columns(self):
        from repro.bench.figures import table1_sizes

        rows = table1_sizes([1.0])
        row = rows[0]
        assert row.target_kb == 1.0
        assert row.unencoded_v2 < row.pbio_v2 < row.xml_v2

    def test_fusion_ablation_rows_have_shape(self):
        from repro.bench.figures import fig_fusion_ablation

        rows = fig_fusion_ablation({"1KB": 1_000}, rounds=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.label == "1KB"
        assert row.speedup == row.staged.best / row.fused.best
        # the interpreted arm pays for everything codegen removes
        assert row.interpreted.best > row.fused.best

    def test_design_ablation_rows_have_shape(self):
        from repro.bench.figures import fig_design_ablations

        rows = fig_design_ablations(rounds=1)
        assert len(rows) == 5
        for row in rows:
            assert row.ratio == row.other.best / row.base.best
        cache, decode, encode = rows[:3]
        # the choices the paper argues for: every ablated arm costs more.
        # A re-plan compiles nothing (one Transformation per spec per
        # process, and the first message of a route runs staged), so it
        # costs MaxMatch, the closure walk and one staged message: 1.71 -
        # 1.79x the cached route in seven runs (10 - 17x while every
        # re-plan compiled a fused route)
        assert cache.ratio > 1.3 and decode.ratio > 2 and encode.ratio > 2


def _measured(seconds):
    return Measurement(best=seconds, mean=seconds, rounds=1, number=1)


def synthetic_payload(host=1.0, pbio=None, xml_over_pbio=None):
    """A ``--quick``-shaped payload of every gated figure, built by the
    registry's own record functions from rows with chosen timings.
    *host* scales every time there is (a faster or slower machine),
    *pbio* ``{key: factor}`` slows one figure's PBIO arm alone, and
    *xml_over_pbio* ``{key: factor}`` sets a comparison figure's ratio."""
    from repro.bench.__main__ import FIGURES, _record
    from repro.bench.fabric import FabricScalingRow
    from repro.bench.figures import (
        AblationRow, ComparisonRow, ProjectionRow, table1_sizes,
    )

    ms = 0.001 * host
    sizes = (("100B", 88), ("1KB", 976), ("10KB", 9967))
    factors = {"BENCH_fig8": 5.0, "BENCH_fig9": 30.0, "BENCH_fig10": 25.0,
               **(xml_over_pbio or {})}
    rows = {
        key: [
            ComparisonRow(
                label, size,
                _measured(ms * size * (pbio or {}).get(key, 1.0)),
                _measured(ms * size * factor),
            )
            for label, size in sizes
        ]
        for key, factor in factors.items()
    }
    rows["BENCH_fusion"] = [
        AblationRow(label, size, fused=_measured(0.7 * ms * size),
                    staged=_measured(ms * size),
                    interpreted=_measured(15 * ms * size))
        for label, size in sizes
    ]
    rows["BENCH_fabric"] = [
        FabricScalingRow(
            workers=n, messages=100, delivered=100, wall_seconds=ms * 300,
            calibration=ms * 10,
            worker_cpu_seconds={f"w{i}": ms * 400 / n for i in range(n)},
            worker_processed={f"w{i}": 100 // n for i in range(n)},
        )
        for n in (1, 2, 4)
    ]
    rows["BENCH_projection"] = [
        ProjectionRow("full", 8, 512, 312, _measured(ms * 20)),
        ProjectionRow("projected", 2, 512, 28, _measured(ms * 13)),
    ]
    rows["BENCH_table1"] = table1_sizes([0.1, 1.0])
    return {
        figure.key: _record(figure, rows[figure.key])
        for figure in FIGURES if figure.gate is not None
    }


def gate(payload, baseline):
    from repro.bench.__main__ import FIGURES
    from repro.bench.gate import compare_to_baseline

    gates = {f.key: f.gate for f in FIGURES if f.gate is not None}
    table, failures = compare_to_baseline(gates, payload, baseline)
    return {row[0]: row[-1] for row in table}, table, failures


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        # (a) the recording host's speed is not in the verdict: a
        # baseline 2.5x faster or slower, ratios held, reads the same
        payload = synthetic_payload()
        verdicts = [
            gate(payload, synthetic_payload(host=host))
            for host in (1.0, 0.4, 2.5)
        ]
        status, table, failures = verdicts[0]
        assert failures == []
        assert set(status.values()) == {"ok"} and len(status) == 7
        assert all(verdict == verdicts[0] for verdict in verdicts[1:])
        # and a drift inside the tolerance is not a regression
        status, _, failures = gate(
            synthetic_payload(pbio={"BENCH_fig9": 1.1}), payload
        )
        assert failures == [] and status["BENCH_fig9"] == "ok"

    def test_slowdown_fails_per_figure(self):
        # (b) one figure's PBIO arm 1.5x slower, its XML arm unchanged
        status, table, failures = gate(
            synthetic_payload(host=0.4, pbio={"BENCH_fig9": 1.5}),
            synthetic_payload(),
        )
        assert len(failures) == 1
        assert failures[0].startswith("BENCH_fig9: geomean")
        assert "1.500" in failures[0]
        assert [key for key, verdict in status.items() if verdict != "ok"] == [
            "BENCH_fig9"
        ]

    def test_row_under_the_paper_floor_fails_whatever_the_baseline(self):
        # (c) XML/XSLT only 8x morphing: equally bad in the baseline,
        # still not what the paper claims
        slow = synthetic_payload(xml_over_pbio={"BENCH_fig10": 8.0})
        status, table, failures = gate(slow, slow)
        assert status["BENCH_fig10"] == "FAIL"
        assert len(failures) == 3  # every size is under the floor
        assert all(
            f.startswith("BENCH_fig10: ") and "under the paper's 10x" in f
            for f in failures
        )
        assert [k for k, v in status.items() if v != "ok"] == ["BENCH_fig10"]

    def test_one_changed_byte_count_fails_table1(self):
        # (d) Table 1 is byte counts: equal, or a regression
        payload = synthetic_payload()
        payload["BENCH_table1"]["workloads"][1]["sizes_bytes"]["pbio_v2"] += 1
        status, table, failures = gate(payload, synthetic_payload())
        assert [k for k, v in status.items() if v != "ok"] == ["BENCH_table1"]
        assert len(failures) == 1 and "1KB" in failures[0]

    def test_fused_relative_cost_outranks_raw_seconds(self):
        # (e) registry/record drift: every entry that declares a gate
        # records the metric its gate reads, from its real row function
        # (the id predates the registry: the ratio is the only thing the
        # gate reads now, there is no raw time left to outrank)
        from repro.bench.__main__ import FIGURES, _record
        from repro.bench import figures
        from repro.bench.gate import _gated

        tiny = {"1KB": 1_000}
        rows = {
            "BENCH_fig8": figures.fig8_encoding(tiny, rounds=1),
            "BENCH_fig9": figures.fig9_decoding(tiny, rounds=1),
            "BENCH_fig10": figures.fig10_morphing(tiny, rounds=1),
            "BENCH_fusion": figures.fig_fusion_ablation(tiny, rounds=1),
            "BENCH_projection": figures.fig_projection(messages=16, rounds=1),
            "BENCH_table1": figures.table1_sizes([1.0]),
        }
        gated = {f.key: f for f in FIGURES if f.gate is not None}
        # the multiprocess fabric rows are held to the same contract in
        # TestFabricBenchSupport, from constructed rows
        assert set(gated) == set(rows) | {"BENCH_fabric"}
        for key, figure_rows in rows.items():
            figure = gated[key]
            values = _gated(_record(figure, figure_rows), figure.gate)
            anchored = key == "BENCH_projection"  # the anchor row has no ratio
            assert len(values) == len(figure_rows) - anchored, key
        # every tolerance sits above the spread it was chosen from and
        # none is looser than the loosest the old gate had
        for figure in gated.values():
            assert figure.gate.spread <= figure.gate.tolerance <= 1.35

    def test_missing_figures_and_labels_are_skipped(self):
        payload = synthetic_payload()
        baseline = synthetic_payload()
        # a figure the baseline never recorded is listed, not dropped
        del baseline["BENCH_fusion"]
        # a full-size baseline label the quick run does not have, and a
        # quick label the baseline lacks, gate nothing
        baseline["BENCH_fig9"]["workloads"][0]["label"] = "1MB"
        status, table, failures = gate(payload, baseline)
        assert failures == []
        assert status["BENCH_fusion"] == "no baseline"
        assert status["BENCH_fig9"] == "ok"
        assert len(table) == 7

    def test_a_gated_figure_that_records_no_metric_fails(self):
        payload = synthetic_payload()
        for work in payload["BENCH_fusion"]["workloads"]:
            del work["timings"]["fused_relative_cost"]
        status, _, failures = gate(payload, synthetic_payload())
        assert status["BENCH_fusion"] == "FAIL"
        assert failures == ["BENCH_fusion: records no fused_relative_cost"]


class TestBenchCli:
    def test_help_lists_exactly_the_four_flags(self, capsys):
        import re

        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--json", "--compare", "--obs"}

    def test_unknown_flag_exits_2(self, capsys):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--quick", "--fast"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("document", [
        '{"schema": "repro-bench/v1", "BENCH_fig8": {"workloads": []}}',
        "[]",
        "not json",
    ])
    def test_compare_against_another_schema_exits_2_before_running(
        self, tmp_path, capsys, document
    ):
        from repro.bench.__main__ import main

        baseline = tmp_path / "old.json"
        baseline.write_text(document)
        with pytest.raises(SystemExit) as exit_info:
            main(["--quick", "--compare", str(baseline)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and str(baseline) in captured.err
        assert "==" not in captured.out  # no figure ran

    def test_docs_gate_table_matches_the_registry(self):
        """docs/PERFORMANCE.md states what each figure gates on; the
        registry is where that is decided."""
        from pathlib import Path

        from repro.bench.__main__ import FIGURES

        text = (Path(__file__).resolve().parents[2] / "docs"
                / "PERFORMANCE.md").read_text()
        documented = {}
        for line in text.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 6 and cells[0].startswith("`BENCH_"):
                documented[cells[0].strip("`")] = cells[1:5]
        expected = {}
        for figure in FIGURES:
            gate_ = figure.gate
            expected[figure.key] = ["—"] * 4 if gate_ is None else [
                f"`{gate_.metric}`",
                "identical" if gate_.exact else f"{gate_.tolerance:.2f}",
                "—" if gate_.exact else f"{gate_.spread:.2f}",
                "—" if gate_.floor is None else f"≥ {gate_.floor:g}×",
            ]
        assert documented == expected


class TestFabricBenchSupport:
    def test_balanced_channels_spread_ownership_evenly(self):
        from repro.bench.fabric import balanced_channels
        from repro.fabric import HashRing, shard_of

        fleet = ["w1", "w2", "w3", "w4"]
        channels = balanced_channels(fleet, per_worker=4)
        assert len(channels) == 16
        assert len(set(channels)) == 16
        ring = HashRing()
        for address in fleet:
            ring.add(address)
        assignment = ring.assign(128)
        per_owner = {address: 0 for address in fleet}
        for channel_id in channels:
            per_owner[assignment[shard_of(channel_id)]] += 1
        assert per_owner == {address: 4 for address in fleet}

    def test_fabric_scaling_cost_participates_in_the_gate(self):
        from repro.bench.gate import _gated
        from repro.bench.__main__ import FIGURES

        (figure,) = [f for f in FIGURES if f.key == "BENCH_fabric"]
        payload = synthetic_payload()
        # every scaled fleet records the gated ratio; the 1w row anchors it
        assert _gated(payload["BENCH_fabric"], figure.gate) == {
            "2w": pytest.approx(0.5), "4w": pytest.approx(0.25),
        }

        def scaled_fleets_cost(factor):
            document = synthetic_payload()
            for work in document["BENCH_fabric"]["workloads"][1:]:
                work["timings"]["fabric_scaling_cost"] *= factor
            return document

        # Inside the widened multiprocess tolerance: no failure.
        status, _, failures = gate(scaled_fleets_cost(1.3), payload)
        assert failures == [] and status["BENCH_fabric"] == "ok"

        # A genuine scaling loss blows straight through it.
        status, _, failures = gate(scaled_fleets_cost(1.5), payload)
        assert len(failures) == 1 and failures[0].startswith("BENCH_fabric: ")
        assert [k for k, v in status.items() if v != "ok"] == ["BENCH_fabric"]

    def test_churn_record_is_exactly_once(self):
        from repro.bench.fabric import bench_fabric_churn

        result = bench_fabric_churn(rounds=3)
        assert result.exactly_once
        assert result.handoffs > 0
        assert result.epochs >= 4
