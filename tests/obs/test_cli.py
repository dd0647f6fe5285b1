"""The ``python -m repro.obs`` CLI and the bench JSON record helpers."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.bench.__main__ import FIGURES, _record
from repro.bench.reporting import stage_breakdown
from repro.bench.timing import Measurement
from repro.obs.__main__ import main as obs_main


class _Row:
    """Duck-typed ComparisonRow for the record builder."""

    def __init__(self):
        self.label = "1KB"
        self.unencoded_bytes = 1000
        self.pbio = Measurement(best=0.001, mean=0.002, rounds=2, number=10)
        self.xml = Measurement(best=0.010, mean=0.012, rounds=2, number=10)

    @property
    def ratio(self):
        return self.xml.best / self.pbio.best


def test_rows_record_shape():
    (fig9,) = [figure for figure in FIGURES if figure.key == "BENCH_fig9"]
    record = _record(fig9, [_Row()])
    assert record["figure"] == "fig9_decoding"
    (workload,) = record["workloads"]
    assert workload["label"] == "1KB"
    assert workload["unencoded_bytes"] == 1000
    timings = workload["timings"]
    assert timings["pbio_seconds"] == 0.001
    assert timings["xml_seconds"] == 0.010
    assert timings["ratio"] == 10.0
    assert timings[fig9.gate.metric] == 0.1


def test_stage_breakdown_splits_timings_counters_distributions():
    registry = obs.Registry()
    registry.counter("morph.receiver.cache_hits").inc(5)
    registry.counter("never.incremented")
    registry.histogram("pbio.decode.seconds").observe(0.002)
    registry.histogram("empty.seconds")
    registry.histogram(
        "morph.maxmatch.mismatch_ratio", bounds=obs.RATIO_BUCKETS
    ).observe(0.25)
    stages = stage_breakdown(registry)
    assert stages["counters"] == {"morph.receiver.cache_hits": 5}
    assert list(stages["timings"]) == ["pbio.decode.seconds"]
    assert stages["timings"]["pbio.decode.seconds"]["count"] == 1
    # ratio histograms are distributions, not (milli)second timings
    assert list(stages["distributions"]) == ["morph.maxmatch.mismatch_ratio"]


def test_obs_cli_demo_snapshot(tmp_path, capsys):
    out = tmp_path / "snap.json"
    assert obs_main(["--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "== metrics ==" in stdout
    assert "== spans ==" in stdout

    snap = json.loads(out.read_text())
    metrics = snap["metrics"]
    # 25 events plus the channel-protocol control messages
    assert metrics["morph.receiver.messages"]["value"] >= 25
    assert metrics["morph.receiver.cache_hits"]["value"] >= 24
    assert metrics['echo.channel.events_delivered{channel="readings"}'][
        "value"
    ] == 25
    assert snap["spans"]["buffered"] > 0
    # the CLI leaves the process-wide state disabled and clean
    assert not obs.is_enabled()
    assert len(obs.get_registry()) == 0

    # --load pretty-prints a saved snapshot
    assert obs_main(["--load", str(out)]) == 0
    loaded = capsys.readouterr().out
    assert "morph.receiver.messages" in loaded
    assert "spans:" in loaded


def test_obs_cli_prometheus(capsys):
    assert obs_main(["--prometheus"]) == 0
    stdout = capsys.readouterr().out
    assert "# TYPE morph_receiver_cache_hits counter" in stdout
    assert "# TYPE pbio_decode_seconds histogram" in stdout
    assert 'echo_channel_events_delivered{channel="readings"} 25' in stdout


@pytest.mark.parametrize("argv", [
    ["--topp"],                   # an unknown flag is not the default demo
    ["--watch", "5"],             # --watch without --top
    ["--top", "--trace-smoke"],   # two modes at once
])
def test_obs_cli_rejects_what_it_would_have_ignored(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        obs_main(argv)
    assert exit_info.value.code == 2
    assert "usage: python -m repro.obs" in capsys.readouterr().err
