"""Serving throughput: the shared-code-space acceptance gate.

N tenants served over one :class:`repro.server.CodeSpace` must deliver
at least 1.5× the aggregate throughput of N fully isolated VMs running
the same SalaryDB workload — *including* the one-time code-space build
(link + warmup compiles + freeze) in the shared-side cost.  The win is
structural: isolated VMs each pay link + adaptive warmup + opt
compilation + quickening, while sessions pay only execution plus one
static-field snapshot copy.

The gate also re-asserts the isolation invariant under measurement
conditions: every session digest must be identical (same seed, zero
cross-tenant leakage).
"""

from __future__ import annotations

import time

from conftest import write_bench_scalar

from repro import VM, compile_source
from repro.mutation import build_mutation_plan
from repro.server import CodeSpace, output_digest, serve
from repro.vm.adaptive import AdaptiveConfig
from repro.workloads import get_workload

SCALE = 0.25
SESSIONS = 8
MIN_SPEEDUP = 1.5
#: Same aggressive promotion on both sides so the comparison is
#: build-cost amortization, not tier configuration.
ADAPTIVE = AdaptiveConfig(promote_ticks=32)


def test_shared_space_beats_isolated_vms(benchmark):
    spec = get_workload("salarydb")
    source = spec.source(SCALE)
    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )

    def unit():
        return compile_source(
            source,
            entry_class=spec.entry_class,
            entry_method=spec.entry_method,
        )

    def measure():
        # Isolated: N VMs, each building its own world.
        start = time.perf_counter()
        iso_outputs = []
        for _ in range(SESSIONS):
            vm = VM(unit(), mutation_plan=plan,
                    adaptive_config=ADAPTIVE, seed=7)
            iso_outputs.append(vm.run().output)
        iso_wall = time.perf_counter() - start

        # Shared: one code space (build cost included), N sessions.
        start = time.perf_counter()
        space = CodeSpace(unit(), mutation_plan=plan,
                          adaptive_config=ADAPTIVE, warmup_seed=7)
        report = serve(space, sessions=SESSIONS, workers=SESSIONS,
                       seed=7, workload=spec.name)
        shared_wall = time.perf_counter() - start
        return iso_outputs, iso_wall, report, shared_wall

    iso_outputs, iso_wall, report, shared_wall = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )

    assert not report.errors
    assert report.digests_identical
    # Shared-space sessions match the isolated VMs byte for byte.
    assert {output_digest(o) for o in iso_outputs} == set(report.digests)

    iso_throughput = SESSIONS / iso_wall
    shared_throughput = SESSIONS / shared_wall
    speedup = shared_throughput / iso_throughput
    write_bench_scalar(
        "serve",
        workload=spec.name,
        scale=SCALE,
        sessions=SESSIONS,
        workers=SESSIONS,
        isolated_wall_seconds=iso_wall,
        shared_wall_seconds=shared_wall,
        codespace_build_seconds=report.codespace_build_seconds,
        isolated_throughput=iso_throughput,
        shared_throughput=shared_throughput,
        speedup=speedup,
        min_required_speedup=MIN_SPEEDUP,
        latency_mean=report.latency_mean,
        latency_p50=report.latency_p50,
        latency_max=report.latency_max,
        digests_identical=report.digests_identical,
    )
    print(f"\nSalaryDB x{SESSIONS}: isolated {iso_wall:.3f}s "
          f"({iso_throughput:.2f}/s), shared {shared_wall:.3f}s "
          f"({shared_throughput:.2f}/s) -> {speedup:.2f}x "
          f"(build {report.codespace_build_seconds:.3f}s)")
    assert speedup >= MIN_SPEEDUP, (
        f"shared code space delivered only {speedup:.2f}x the isolated "
        f"throughput (need >= {MIN_SPEEDUP}x)"
    )
