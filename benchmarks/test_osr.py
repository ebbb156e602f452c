"""On-stack replacement benchmark: the single-invocation acceptance gate.

The OSR tentpole's promise is that a *single* invocation of a
long-running loop reaches (close to) steady-state compiled speed: the
frame starts in the interpreter, crosses the promotion threshold on a
back-edge a few dozen iterations in, and jumps into the opt2
continuation for the remaining ~2M iterations.  Without OSR the whole
first invocation runs interpreted and only *later* calls get compiled
code — two orders of magnitude slower on this shape.

Two legs, interleaved, min-of-N (``time.process_time``; wall time on
this container jitters):

* **steady** — warm the method to opt2 with short calls (compiles land
  off-clock), then time one long invocation of pure compiled code;
* **osr** — fresh VM, time the very first long invocation; the clock
  includes the interpreted prefix, both tier compiles, and the OSR
  continuation compile, which is exactly the cost OSR must amortize.

The gate: the osr leg within 10% of steady state, byte-identical
output, and exactly one ``osr_enter``.  Results land in
``BENCH_osr.json`` for cross-PR tracking.
"""

import time

from conftest import write_bench_scalar

from repro import VM, VMConfig, compile_source
from repro.vm.adaptive import AdaptiveConfig

ITERS = 2_000_000
WARM_ITERS = 10
REPEATS = 5
MAX_RATIO = 1.10

SOURCE = f"""
class Work {{
    static int crunch(int n) {{
        int acc = 1;
        int i = 0;
        while (i < n) {{
            acc = acc + ((acc ^ i) % 9973);
            i = i + 1;
        }}
        return acc;
    }}
}}
class Main {{
    static void main() {{
        Sys.print("" + Work.crunch({ITERS}));
    }}
}}
"""

#: Promote on the earliest mid-frame crossing: 16 back-edges past the
#: first entry, so any loop longer than that OSRs into opt2.
FAST_PROMOTE = dict(promote_ticks=32)


def _steady_once() -> tuple[float, int]:
    vm = VM(compile_source(SOURCE, entry_class="Main"),
            adaptive_config=AdaptiveConfig(**FAST_PROMOTE),
            config=VMConfig(osr=True))
    # Two short calls cross the threshold; the third proves the method
    # is at opt2 before the clock starts.
    for _ in range(3):
        vm.call_static("Work", "crunch", [WARM_ITERS])
    assert vm.classes["Work"].own_methods["crunch"].compiled.opt_level == 2
    start = time.process_time()
    result = vm.call_static("Work", "crunch", [ITERS])
    return time.process_time() - start, result


def _osr_once():
    vm = VM(compile_source(SOURCE, entry_class="Main"),
            adaptive_config=AdaptiveConfig(**FAST_PROMOTE),
            config=VMConfig(osr=True))
    start = time.process_time()
    result = vm.call_static("Work", "crunch", [ITERS])
    return time.process_time() - start, result, vm


def test_osr_single_invocation_reaches_steady_state_speed():
    _steady_once()  # warm the host (imports, codegen) off-clock
    steady_times, osr_times = [], []
    steady_result = osr_result = None
    enters = 0
    for _ in range(REPEATS):
        t, steady_result = _steady_once()
        steady_times.append(t)
        t, osr_result, vm = _osr_once()
        osr_times.append(t)
        enters = vm.mutation_stats.osr_enters

    assert osr_result == steady_result, "OSR changed the loop's result"
    assert enters == 1, f"expected exactly one OSR entry, saw {enters}"

    steady, osr = min(steady_times), min(osr_times)
    ratio = osr / steady
    write_bench_scalar(
        "osr",
        iterations=ITERS,
        repeats=REPEATS,
        steady_seconds=steady,
        osr_first_invocation_seconds=osr,
        ratio=ratio,
        max_allowed_ratio=MAX_RATIO,
        osr_enters=enters,
    )
    assert ratio <= MAX_RATIO, (
        f"single-invocation OSR run took {ratio:.2f}x steady state "
        f"(gate: {MAX_RATIO:.2f}x; steady={steady:.4f}s osr={osr:.4f}s)"
    )
