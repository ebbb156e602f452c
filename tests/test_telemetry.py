"""repro.telemetry: EventBus ordering & retention, metric bucketing,
exporter schemas, VM instrumentation, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro import VM, Telemetry, compile_source
from repro.harness.cli import main as cli_main
from repro.harness.experiment import (
    run_workload,
    telemetry_compile_summary,
)
from repro.mutation import build_mutation_plan
from repro.telemetry import (
    EventBus,
    Histogram,
    Metrics,
    format_text_report,
    to_chrome_trace,
    to_metrics_json,
)
from repro.telemetry.core import maybe, set_enabled
from repro.workloads import get_workload

from helpers import AGGRESSIVE


# ---------------------------------------------------------------------------
# EventBus
# ---------------------------------------------------------------------------

def test_eventbus_orders_events_and_sequences():
    bus = EventBus()
    bus.emit("a", x=1)
    bus.emit("b")
    bus.emit("a", x=2)
    events = bus.events()
    assert [e.name for e in events] == ["a", "b", "a"]
    assert [e.seq for e in events] == [0, 1, 2]
    # Timestamps are monotonic within the bus.
    assert events[0].ts <= events[1].ts <= events[2].ts
    assert bus.events("a")[1].args == {"x": 2}
    assert bus.count("a") == 2


def test_eventbus_ring_buffer_truncates_oldest():
    bus = EventBus(capacity=4)
    for i in range(10):
        bus.emit("e", i=i)
    retained = bus.events()
    assert len(retained) == 4
    assert [e.args["i"] for e in retained] == [6, 7, 8, 9]
    assert bus.dropped == 6
    assert bus.total_emitted == 10
    # Per-name tallies survive truncation.
    assert bus.count("e") == 10


def test_eventbus_subscribers_see_live_emissions():
    bus = EventBus(capacity=2)
    seen = []
    bus.subscribe(lambda e: seen.append(e.name))
    bus.emit("x")
    bus.emit("y")
    bus.emit("z")  # x has aged out of the ring, but the sink saw it
    assert seen == ["x", "y", "z"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_histogram_bucketing():
    h = Histogram("t", bounds=(1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 3.0, 7.0, 100.0):
        h.observe(value)
    # <=1: {0.5, 1.0}; <=5: {3.0}; <=10: {7.0}; +Inf: {100.0}
    assert h.bucket_counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.total == pytest.approx(111.5)
    assert h.min == 0.5 and h.max == 100.0
    d = h.to_dict()
    assert d["buckets"][-1] == {"le": None, "count": 1}
    assert sum(b["count"] for b in d["buckets"]) == h.count


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(5.0, 1.0))


def test_metrics_registry_reuses_slots():
    m = Metrics()
    m.counter("c").inc()
    m.counter("c").inc(4)
    m.gauge("g").set(7)
    m.histogram("h", bounds=(1,)).observe(2)
    snap = m.snapshot()
    assert snap["counters"] == {"c": 5}
    assert snap["gauges"] == {"g": 7}
    assert snap["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Enabled-flag contract
# ---------------------------------------------------------------------------

def test_maybe_respects_instance_and_module_flags():
    tel = Telemetry()
    assert maybe(tel) is tel
    assert maybe(None) is None
    tel.enabled = False
    assert maybe(tel) is None
    tel.enabled = True
    set_enabled(False)
    try:
        assert maybe(tel) is None
        assert not tel.enabled
    finally:
        set_enabled(True)
    assert maybe(tel) is tel


def test_disabled_telemetry_emits_nothing_during_run():
    source = get_workload("salarydb").source(0.02)
    tel = Telemetry(enabled=False)
    vm = VM(compile_source(source), adaptive_config=AGGRESSIVE,
            telemetry=tel)
    vm.run()
    assert tel.bus.total_emitted == 0
    assert tel.metrics.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

def test_chrome_trace_schema():
    tel = Telemetry()
    tel.emit("tib_swap", cls="C")
    tel.emit("compile_end", dur=0.25, method="C.m", opt_level=2)
    trace = to_chrome_trace(tel)
    text = json.dumps(trace)  # must be JSON-serializable as-is
    assert "traceEvents" in trace
    events = trace["traceEvents"]
    for entry in events:
        assert {"name", "ph", "pid", "tid"} <= set(entry)
        assert entry["ph"] in ("M", "i", "X", "C")
        if entry["ph"] != "M":
            assert isinstance(entry["ts"], float)
    by_name = {e["name"]: e for e in events}
    assert by_name["tib_swap"]["ph"] == "i"
    x = by_name["compile_end"]
    assert x["ph"] == "X"
    assert x["dur"] == pytest.approx(0.25 * 1e6)
    assert x["ts"] >= 0 or x["ts"] == pytest.approx(
        by_name["tib_swap"]["ts"] - x["dur"], abs=1e6
    )
    assert "compile_end" in text and "process_name" in text


def test_gauge_history_is_bounded_and_ordered():
    from repro.telemetry.metrics import GAUGE_HISTORY_CAPACITY, Gauge

    g = Gauge("g")
    for i in range(GAUGE_HISTORY_CAPACITY + 10):
        g.set(i)
    assert g.value == GAUGE_HISTORY_CAPACITY + 9
    assert len(g.history) == GAUGE_HISTORY_CAPACITY
    timestamps = [ts for ts, _ in g.history]
    assert timestamps == sorted(timestamps)
    assert [v for _, v in g.history][-1] == g.value


def test_chrome_trace_counter_tracks_from_gauges():
    """Gauge histories export as ``ph: "C"`` counter events so swap
    rate, cumulative compile seconds, and IC hit rate plot as Perfetto
    counter tracks on the same timeline as the events."""
    source = get_workload("salarydb").source(0.05)
    plan = build_mutation_plan(source)
    # OSR off: the hot loops must stay in the interpreter long enough
    # for IC misses to populate the ic.hit_rate gauge this test asserts
    # on.
    from repro import VMConfig

    vm = VM(compile_source(source), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, telemetry=True,
            config=VMConfig(osr=False))
    vm.run()
    trace = to_chrome_trace(vm.telemetry)
    json.dumps(trace)  # still JSON-serializable with counter samples
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert counters, "instrumented run produced no counter samples"
    tracks = {e["name"] for e in counters}
    assert {"mutation.swap_rate", "vm.compile_seconds",
            "ic.hit_rate"} <= tracks
    for name in tracks:
        samples = [e for e in counters if e["name"] == name]
        ts = [e["ts"] for e in samples]
        assert ts == sorted(ts) and all(t >= 0 for t in ts)
        assert all(
            isinstance(e["args"]["value"], (int, float))
            for e in samples
        )
    # The compile-seconds track is cumulative, so it never decreases.
    compile_track = [
        e["args"]["value"] for e in counters
        if e["name"] == "vm.compile_seconds"
    ]
    assert len(compile_track) >= 2
    assert compile_track == sorted(compile_track)
    rates = [e["args"]["value"] for e in counters
             if e["name"] == "ic.hit_rate"]
    assert all(0.0 <= r <= 1.0 for r in rates)


def test_metrics_json_roundtrips():
    tel = Telemetry()
    tel.count("c", 3)
    tel.observe("h", 0.5, bounds=(1.0,))
    dump = json.loads(json.dumps(to_metrics_json(tel)))
    assert dump["counters"]["c"] == 3
    assert dump["histograms"]["h"]["count"] == 1
    assert dump["events"]["total"] == 0


# ---------------------------------------------------------------------------
# VM integration
# ---------------------------------------------------------------------------

def _mutated_salarydb_vm(scale: float = 0.05):
    spec = get_workload("salarydb")
    source = spec.source(scale)
    plan = build_mutation_plan(source)
    tel = Telemetry()
    vm = VM(compile_source(source), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, telemetry=tel)
    return vm, tel


def test_salarydb_mutation_emits_swap_and_install_events():
    vm, tel = _mutated_salarydb_vm()
    result = vm.run()
    assert "total=" in result.output
    bus = tel.bus
    assert bus.count("tib_swap") >= 1
    assert bus.count("special_install") >= 1
    assert bus.count("compile_begin") >= 1
    assert bus.count("compile_end") >= 1
    assert bus.count("tier_promote") >= 1
    assert bus.count("hook_fired") >= 1
    # compile_end events carry durations and pair up with begins.
    ends = bus.events("compile_end")
    assert all(e.dur is not None and e.dur >= 0 for e in ends)
    assert len(ends) == len(bus.events("compile_begin"))
    counters = tel.metrics.snapshot()["counters"]
    # mutation.tib_swap counts every swap; the events stay directional
    # (tib_swap to a special TIB, deopt_to_class_tib back).
    assert counters["mutation.tib_swap"] == (
        bus.count("tib_swap") + bus.count("deopt_to_class_tib")
    )
    assert counters["mutation.tib_swap"] == vm.mutation_stats.tib_swaps
    assert counters["mutation.tib_swap"] == vm.mutation_manager.tib_swaps
    assert counters["mutation.specials_compiled"] >= 1
    assert counters["dispatch.opt2"] > 0
    # The text report renders without blowing up and names the events.
    report = format_text_report(tel)
    assert "tib_swap" in report and "histograms:" in report


@pytest.mark.parametrize("workload", ["salarydb", "jbb2000"])
def test_telemetry_outputs_match_untelemetered_run(workload):
    """Telemetry swaps every class onto the recorded re-evaluation
    closure; jbb2000 adds multi-field state classes.  Output and swaps
    must not notice."""
    spec = get_workload(workload)
    source = spec.source(0.05)
    plan = build_mutation_plan(source)
    plain = VM(compile_source(source), mutation_plan=plan,
               adaptive_config=AGGRESSIVE)
    traced = VM(compile_source(source), mutation_plan=plan,
                adaptive_config=AGGRESSIVE, telemetry=True)
    assert plain.run().output == traced.run().output
    assert traced.telemetry.bus.total_emitted > 0
    swaps = traced.mutation_stats.tib_swaps
    assert swaps > 0
    assert swaps == plain.mutation_stats.tib_swaps
    # Swap accounting agrees between telemetry and the manager counters.
    assert traced.telemetry.summary()["counters"]["mutation.tib_swap"] == swaps
    assert (
        traced.telemetry.bus.count("tib_swap")
        + traced.telemetry.bus.count("deopt_to_class_tib")
        == traced.mutation_manager.tib_swaps
    )


def test_run_workload_telemetry_report_and_summary():
    spec = get_workload("salarydb")
    plan = build_mutation_plan(spec.source(0.05))
    m = run_workload(spec, plan, repeats=1, scale=0.05, telemetry=True)
    assert m.telemetry_report is not None
    assert m.telemetry_report["events"]["total"] > 0
    summary = telemetry_compile_summary(m.telemetry_report)
    assert summary["compile_seconds_total"] > 0
    assert summary["tib_swaps"] >= 1
    assert summary["specials_compiled"] >= 1
    # Off by default: no report, no summary numbers.
    m_off = run_workload(spec, None, repeats=1, scale=0.02)
    assert m_off.telemetry_report is None
    assert telemetry_compile_summary(None)["tib_swaps"] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_trace_writes_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = cli_main([
        "trace", "salarydb", "-o", str(out), "--scale", "0.05",
    ])
    assert rc == 0
    trace = json.loads(out.read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert "tib_swap" in names
    assert "compile_begin" in names and "compile_end" in names
    assert "special_install" in names


def test_cli_stats_prints_report(capsys):
    rc = cli_main(["stats", "salarydb", "--scale", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "JxVM telemetry: salarydb" in out
    assert "tib_swap" in out
    assert "counters:" in out


def test_cli_compare_prints_telemetry_summary(capsys):
    rc = cli_main(["compare", "salarydb", "--repeats", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compile seconds" in out
    assert "tib swaps" in out
