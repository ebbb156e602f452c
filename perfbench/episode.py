"""One program lifetime of a perfbench workload, run in a fresh process.

    python3 perfbench/episode.py --workload NAME --seed N [--trace 1]
        [--spans PATH] [--reference]

Prints one JSON object: the episode's timings, every operation's
output digest, and (traced) the per-layer metrics.  ``--reference``
instead runs the same operation sequence on a mutation-off VM with the
adaptive system disabled and prints the digests it produced, which
``run.py`` records as the reference outputs.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and every
``JX_*`` variable removed, so the program runs with its defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import threading
import time
from typing import Any

from tracer import NullTracer, Tracer

#: SPECjbb warehouse slices per VM lifetime; the first
#: ``JBB_WARMUP_SLICES`` are the paper's warm-up warehouses.
JBB_SLICES = 8
JBB_WARMUP_SLICES = 3
#: Reads the cumulative transaction checksum after each slice, so every
#: slice's output is checked, not only the final ``main()`` print.
JBB_PROBE = """
class BenchProbe {
    static int checksum() { return Main.checksum; }
}
"""
#: SalaryDB source scale for serving, and the closed loop's shape.
SERVE_SCALE = 0.25
SERVE_CLIENTS = 2
SERVE_SESSIONS = 100


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Episode:
    """Timings and operation records of one program lifetime."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.t0 = time.perf_counter()
        self.import_s = 0.0
        self.plan_s = 0.0
        self.setup_s = 0.0
        self.ready = 0.0
        #: Operations in flight at once (the closed loop's clients).
        self.clients = 1
        self.ops: list[dict[str, Any]] = []
        self.counters: dict[str, float] = {}
        self.lock = threading.Lock()

    def op(self, fn, warmup: bool) -> None:
        """Run one operation; ``fn`` returns (output text, work units).
        A raised exception is recorded as the operation's error."""
        rec: dict[str, Any] = {"warmup": warmup, "digest": None,
                               "error": None, "units": 0}
        start = time.perf_counter()
        try:
            with self.tracer.span("op", op=True):
                text, rec["units"] = fn()
            rec["digest"] = digest(text)
        except Exception as exc:  # counted as a failed operation
            rec["error"] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        rec.update(start=start - self.t0, end=end - self.t0,
                   seconds=end - start)
        with self.lock:
            self.ops.append(rec)


# -- the three workloads ---------------------------------------------------
#
# Each takes the imported modules, the seed and the episode and returns
# (input fingerprint, None).  The fingerprint digests the generated
# sources and the operation sequence, so a stale reference record is
# detected.  With ``reference`` set, it runs the operations on the
# independent interpreter instead and returns their outputs in place of
# None.


def java2xhtml_cold(m: Any, seed: int, ep: Episode, reference: bool):
    spec = m.workloads.get_workload("java2xhtml")
    src = spec.bench_source()
    fingerprint = digest(json.dumps(["java2xhtml-cold", src]))
    if reference:
        vm = _reference_vm(m, src, seed)
        return fingerprint, [vm.run().output]
    plan = _plan(m, spec.profile_source(), seed, ep)
    vm = _setup(ep, lambda: m.repro.VM(
        m.repro.compile_source(src), mutation_plan=plan, seed=seed))
    ep.op(lambda: (vm.run().output, 1), warmup=False)
    if ep.tracer.enabled:
        ep.counters.update(_vm_counters(vm, ops=1))
    return fingerprint, None


def jbb2000_steady(m: Any, seed: int, ep: Episode, reference: bool):
    spec = m.workloads.get_workload("jbb2000")
    params = dataclasses.replace(m.jbb2000.PARAMS, seed=seed)
    src = m.specjbb.jbb_source(params, spec.bench_scale) + JBB_PROBE
    fingerprint = digest(json.dumps(["jbb2000-steady", src, JBB_SLICES]))

    def slice_op(vm):
        def run():
            done = vm.call_static("Main", "runSlice")
            checksum = vm.call_static("BenchProbe", "checksum")
            return f"{done}:{checksum}", done
        return run

    if reference:
        vm = _reference_vm(m, src, seed)
        return fingerprint, [slice_op(vm)()[0] for _ in range(JBB_SLICES)]
    plan_src = m.specjbb.jbb_source(params, spec.profile_scale) + JBB_PROBE
    plan = _plan(m, plan_src, seed, ep)
    vm = _setup(ep, lambda: m.repro.VM(
        m.repro.compile_source(src), mutation_plan=plan, seed=seed))
    for i in range(JBB_SLICES):
        ep.op(slice_op(vm), warmup=i < JBB_WARMUP_SLICES)
    if ep.tracer.enabled:
        ep.counters.update(_vm_counters(vm, ops=JBB_SLICES))
    return fingerprint, None


def salarydb_serve(m: Any, seed: int, ep: Episode, reference: bool):
    spec = m.workloads.get_workload("salarydb")
    src = spec.source(SERVE_SCALE)
    fingerprint = digest(json.dumps(["salarydb-serve", src]))
    if reference:
        vm = _reference_vm(m, src, seed)
        return fingerprint, [vm.run().output]
    plan = _plan(m, spec.profile_source(), seed, ep)
    space = _setup(ep, lambda: m.server.CodeSpace(
        m.repro.compile_source(src), mutation_plan=plan))
    traced = ep.tracer.enabled
    totals: dict[str, float] = {}

    def session_op():
        session = space.create_session(seed=seed)
        try:
            output = session.run().output
            if traced:
                _add(totals, _session_counters(session), ep.lock)
            return output, 1
        finally:
            session.close()

    # The first session runs alone on the freshly frozen space; then a
    # closed loop of SERVE_CLIENTS clients, each sending its next
    # request when the previous one completes.
    ep.op(session_op, warmup=True)
    ep.clients = SERVE_CLIENTS
    remaining = [SERVE_SESSIONS]

    def client():
        while True:
            with ep.lock:
                if remaining[0] == 0:
                    return
                remaining[0] -= 1
            ep.op(session_op, warmup=False)

    clients = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    if not traced:
        return fingerprint, None
    # The template VM's counts (warm-up run included) plus every
    # session's private ones.
    counters = _vm_counters(space.vm, ops=0)
    for key, value in totals.items():
        counters[key] += value
    counters["mutation.swaps_per_op"] = (
        totals["mutation.tib_swaps"] / (SERVE_SESSIONS + 1))
    counters["server.codespace_hits"] = float(space.codespace_hits)
    ep.counters.update(counters)
    return fingerprint, None


WORKLOADS = {
    "java2xhtml-cold": java2xhtml_cold,
    "jbb2000-steady": jbb2000_steady,
    "salarydb-serve": salarydb_serve,
}


def _plan(m: Any, source: str, seed: int, ep: Episode):
    start = time.perf_counter()
    plan = m.pipeline.build_mutation_plan(source, seed=seed)
    ep.plan_s = time.perf_counter() - start
    if ep.tracer.enabled:
        ep.counters.update({
            "plan.mutable_classes": float(len(plan.classes)),
            "plan.hot_states": float(sum(
                len(c.hot_states) for c in plan.classes.values())),
            "plan.mutable_methods": float(sum(
                len(c.mutable_methods) for c in plan.classes.values())),
        })
    return plan


def _setup(ep: Episode, build):
    """Frontend + VM (or CodeSpace) build; set-up time includes the
    episode's import time."""
    start = time.perf_counter()
    ready = build()
    ep.ready = time.perf_counter()
    ep.setup_s = ep.import_s + (ep.ready - start)
    return ready


def _reference_vm(m: Any, src: str, seed: int):
    """The independent interpreter: no mutation plan, no recompiles."""
    return m.repro.VM(
        m.repro.compile_source(src),
        adaptive_config=m.repro.AdaptiveConfig(enabled=False),
        seed=seed,
    )


def _vm_counters(vm: Any, ops: int) -> dict[str, float]:
    """The counters the VM keeps (VMStats, CompileStats, HeapStats,
    TIB space), read after the operations ran."""
    st, cs = vm.mutation_stats, vm.compile_stats
    levels = [e.opt_level for e in cs.events]
    out = {
        "opt.compiles.opt1": float(levels.count(1)),
        "opt.compiles.opt2": float(levels.count(2)),
        "opt.code_bytes": float(cs.total_code_bytes),
        "opt.special_code_bytes": float(cs.special_code_bytes),
        "opt.special_compile_s": cs.special_seconds,
        "analysis.tv_s": vm.tv_seconds,
        "vm.tib.class_bytes": float(vm.tib_space.class_tib_bytes),
        "vm.tib.special_bytes": float(vm.tib_space.special_tib_bytes),
    }
    out.update(_session_counters(vm))
    out["mutation.swaps_per_op"] = st.tib_swaps / max(1, ops)
    return out


def _session_counters(vm: Any) -> dict[str, float]:
    """Counters a :class:`repro.server.Session` keeps privately."""
    st, heap = vm.mutation_stats, vm.heap
    return {
        "analysis.tv_bodies": float(st.tv_bodies_validated),
        "analysis.tv_downgrades": float(st.tv_downgrades),
        "mutation.specials_compiled": float(st.specials_compiled),
        "mutation.specials_shared": float(st.specials_shared),
        "mutation.tib_swaps": float(st.tib_swaps),
        "mutation.swaps_coalesced": float(st.swaps_coalesced),
        "mutation.special_tibs": float(st.special_tibs_created),
        "mutation.special_tibs_shared": float(st.special_tibs_shared),
        "mutation.plans_downgraded": float(st.plans_downgraded),
        "vm.memo_hits": float(st.memo_hits),
        "vm.osr.enters": float(st.osr_enters),
        "vm.osr.deopts": float(st.osr_deopts),
        "vm.heap.objects": float(heap.objects_allocated),
        "vm.heap.modeled_bytes": float(heap.modeled_object_bytes()),
        "vm.heap.declared_bytes": float(heap.declared_object_bytes),
        "vm.shapes.transitions": float(heap.shape_transitions),
    }


def _add(totals: dict[str, float], more: dict[str, float], lock) -> None:
    with lock:
        for key, value in more.items():
            totals[key] = totals.get(key, 0.0) + value


def _import(ep: Episode) -> Any:
    """Import the program; this is the first part of set-up time."""
    with ep.tracer.span("import"):
        import repro
        import repro.mutation.pipeline as pipeline
        import repro.server as server
        import repro.workloads as workloads

        # Fill the registry before importing a workload module directly:
        # the registry loads its modules only while it is still empty.
        workloads.all_workloads()
        import repro.workloads.specjbb as specjbb
        from repro.workloads.specjbb import jbb2000
    ep.import_s = time.perf_counter() - ep.t0
    return argparse.Namespace(repro=repro, pipeline=pipeline, server=server,
                              workloads=workloads, specjbb=specjbb,
                              jbb2000=jbb2000)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", default=None)
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    ep = Episode(tracer)
    m = _import(ep)
    if args.trace:
        tracer.install()
    fingerprint, ref = WORKLOADS[args.workload](
        m, args.seed, ep, args.reference
    )
    if args.reference:
        print(json.dumps({"fingerprint": fingerprint,
                          "digests": [digest(t) for t in ref]}))
        return
    end = ep.t0 + max(op["end"] for op in ep.ops)
    out = {
        "fingerprint": fingerprint,
        "traced": bool(args.trace),
        "import_s": ep.import_s,
        "plan_s": ep.plan_s,
        "setup_s": ep.setup_s,
        "run_s": end - ep.ready,
        "wall_s": end - ep.t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "clients": ep.clients,
        "ops": ep.ops,
    }
    if args.trace:
        layers = tracer.summary(ep.t0, end)
        layers.update(ep.counters)
        out["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
