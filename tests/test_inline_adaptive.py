"""Inliner and adaptive-system tests."""

from repro import VM, Telemetry, compile_source
from repro.mutation import build_mutation_plan
from repro.vm.adaptive import AdaptiveConfig
from repro.vm.compiled import NEVER
from tests.helpers import AGGRESSIVE, INTERP_ONLY, run_vm


def count_in_source(cm, needle):
    return cm.source_text.count(needle)


CALLS = """
class Helper {
    static int add3(int x) { return x + 3; }
    public int twice(int x) { return x * 2; }
    private int secret(int x) { return x - 1; }
    public int viaPrivate(int x) { return secret(x); }
}
class Main {
    static void main() {
        Helper h = new Helper();
        int acc = 0;
        for (int i = 0; i < 800; i++) {
            acc += Helper.add3(i) + h.twice(i) + h.viaPrivate(i);
        }
        Sys.print("" + acc);
    }
}
"""


def test_static_and_devirtualized_calls_inlined():
    vm = run_vm(CALLS, AGGRESSIVE)
    main = vm.classes["Main"].own_methods["main"].compiled
    assert main.opt_level == 2
    # All three call styles inline away: no .invoke left in main.
    assert count_in_source(main, ".invoke(") == 0
    assert vm.output.strip() == str(sum(i + 3 + 2 * i + i - 1
                                        for i in range(800)))


def test_virtual_call_with_two_targets_not_devirtualized():
    source = """
    class A { public int f(int x) { return x + 1; } }
    class B extends A { public int f(int x) { return x + 2; } }
    class Main {
        static void main() {
            A[] xs = new A[2];
            xs[0] = new A(); xs[1] = new B();
            int acc = 0;
            for (int i = 0; i < 800; i++) { acc += xs[i % 2].f(i); }
            Sys.print("" + acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    main = vm.classes["Main"].own_methods["main"].compiled
    assert main.opt_level == 2
    assert count_in_source(main, ".invoke(") >= 1  # guarded dispatch kept


def test_recursive_method_not_inlined_into_itself():
    source = """
    class R {
        static int f(int n) {
            if (n <= 0) { return 0; }
            return n + f(n - 1);
        }
    }
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 300; i++) { acc += R.f(10); }
            Sys.print("" + acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    assert vm.output.strip() == str(300 * 55)


def test_adaptive_promotion_ladder():
    """One rung: a method leaves opt0 for opt2 on the call whose ticks
    cross the threshold, and its threshold is then retired."""
    tel = Telemetry()
    vm = VM(compile_source(CALLS),
            adaptive_config=AdaptiveConfig(promote_ticks=64), telemetry=tel)
    vm.run()
    add3 = vm.classes["Helper"].own_methods["add3"]
    assert add3.compiled.opt_level == 2
    assert add3.samples.threshold == NEVER
    assert [level for level, _ in add3.compile_history] == [2]
    promotes = [e.args for e in tel.bus.events("tier_promote")
                if e.args["method"] == "Helper.add3"]
    assert len(promotes) == 1
    assert promotes[0]["from_level"] == 0 and promotes[0]["to_level"] == 2
    assert promotes[0]["ticks"] == 64  # the 4th call, 16 ticks each


def test_adaptive_disabled_stays_baseline():
    vm = run_vm(CALLS, INTERP_ONLY)
    for rm in vm.all_runtime_methods():
        assert rm.compiled.opt_level == 0
        assert rm.samples.threshold == NEVER


def test_accelerated_methods_jump_to_opt2():
    unit = compile_source(CALLS)
    vm = VM(
        unit,
        adaptive_config=AdaptiveConfig(
            promote_ticks=1 << 40,
            accelerated=frozenset({"Helper.add3"}),
        ),
    )
    vm.run()
    add3 = vm.classes["Helper"].own_methods["add3"]
    assert add3.compiled.opt_level == 2
    twice = vm.classes["Helper"].own_methods["twice"]
    assert twice.compiled.opt_level == 0  # threshold unreachable


def test_recompilation_patches_subclass_tibs():
    source = """
    class A { public int f() { return 1; } }
    class B extends A { }
    class Main {
        static void main() {
            A a = new A();
            int acc = 0;
            for (int i = 0; i < 800; i++) { acc += a.f(); }
            Sys.print("" + acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    a_rc = vm.classes["A"]
    b_rc = vm.classes["B"]
    rm = a_rc.own_methods["f"]
    offset = rm.vtable_offset
    assert rm.compiled.opt_level == 2
    # Paper Fig. 5: new general code propagated to subclass TIBs.
    assert a_rc.class_tib.entries[offset] is rm.compiled
    assert b_rc.class_tib.entries[offset] is rm.compiled


def test_specialization_inlining_uses_lifetime_constants():
    source = """
    class Screen {
        int rows;
        int cols;
        Screen() { rows = 24; cols = 80; }
        public int clip(int len) {
            if (len > cols) { return cols; }
            return len;
        }
    }
    class Report {
        private Screen screen;
        Report() { screen = new Screen(); }
        public int emit(int len) { return screen.clip(len); }
    }
    class Main {
        static void main() {
            Report r = new Report();
            int acc = 0;
            for (int i = 0; i < 900; i++) { acc += r.emit(i % 200); }
            Sys.print("" + acc);
        }
    }
    """
    plan = build_mutation_plan(source)
    assert "Report.screen" in plan.lifetime_constants
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    result = vm.run()
    emit = vm.classes["Report"].own_methods["emit"].compiled
    assert emit.opt_level == 2
    # clip() was inlined with cols=80 bound: the constant appears and no
    # dispatch survives in emit's generated code.
    assert count_in_source(emit, "80") >= 1
    assert count_in_source(emit, ".invoke(") == 0
    # Equivalence against mutation-off.
    unit2 = compile_source(source)
    vm2 = VM(unit2, adaptive_config=AGGRESSIVE)
    assert vm2.run().output == result.output


# ---------------------------------------------------------------------------
# Trace-seeded promotion thresholds
# ---------------------------------------------------------------------------

def test_promotion_thresholds_seeded_from_recorded_trace():
    """The default tick threshold derives from the recorded jbb2000
    ``tier_promote`` trace: the power-of-two floor of the smallest
    recorded tick count at which a method left opt0, never above the
    hand-picked value, and the trace itself is well-formed."""
    import json

    from repro.vm import adaptive as A

    trace = json.loads(A._TIER_TRACE.read_text(encoding="utf-8"))
    assert trace["workload"] == "jbb2000"
    assert trace["entry_ticks"] == A.ENTRY_TICKS
    assert trace["promotions"], "recorded trace has no promotions"
    ticks = [
        p["ticks"] for p in trace["promotions"]
        if p["from_level"] == 0 and not p["accelerated"]
    ]
    assert ticks, "trace has no promotions out of opt0"
    derived = A._traced_ticks()
    # Promotions fire when ticks cross the threshold, so every recorded
    # count sits at or above what was derived from it.
    assert derived <= min(ticks)
    assert derived == A._pow2_floor(derived)  # a power of two
    assert A.ENTRY_TICKS <= derived <= A._HAND_PICKED_TICKS
    assert AdaptiveConfig().promote_ticks == derived == 512


def test_trace_seeded_defaults_match_hand_picked_behavior():
    """Regression: the derived default must not promote later than the
    hand-picked 512-tick threshold, and a run under each produces
    byte-identical output."""
    from repro.vm import adaptive as A

    assert AdaptiveConfig().promote_ticks <= A._HAND_PICKED_TICKS
    derived_vm = run_vm(CALLS, AdaptiveConfig())
    hand_vm = run_vm(CALLS, AdaptiveConfig(promote_ticks=512))
    assert derived_vm.output == hand_vm.output
