"""Quickened dispatch: quick-op metadata, superinstruction fusion,
inline-cache state transitions, flush points, and on/off equivalence.

The quickening layer rewrites each method's resolved body into
``rm.quick_code`` (TIB-keyed inline caches + fused superinstructions)
while the pristine ``rm.info.code`` keeps serving the verifier, the IR
lowering, and the cache digests.  These tests pin the structural
invariants that keep that safe — slot preservation, live hook objects,
the fusion-priority guard — and the IC cell's
mono -> poly -> megamorphic state machine.
"""

import pytest

from repro import VM, compile_source
from repro.bytecode.opcodes import Op, OP_INFO, QUICK_OPS
from repro.bytecode.quicken import FUSION_PAIRS, InterfaceIC, VirtualIC
from repro.vm.interpreter import JxStackTrace
from tests.helpers import AGGRESSIVE, INTERP_ONLY, dequicken_all

#: Original-code slots each fused opcode covers (itself included).
FUSED_SPAN = {
    Op.LOAD_GETFIELD: 2, Op.LOAD_LOAD: 2, Op.LOAD_CONST: 2,
    Op.CMP_LT_JF: 2, Op.CMP_EQ_JF: 2, Op.ADD_STORE: 2,
    Op.ADD_PUTFIELD: 2, Op.ADD_RETURN: 2, Op.LOAD_RETURN: 2,
    Op.LOAD_ADD: 2, Op.LOAD_SUB: 2, Op.LOAD_MUL: 2,
    Op.GETFIELD_RETURN: 3, Op.INC: 4, Op.ITER_LT_JF: 4,
    Op.FIELD_INC: 6,
}

POLY_SOURCE = """
interface Shape {
    int area();
}
class Sq implements Shape {
    int s;
    Sq(int v) { s = v; }
    public int area() { return s * s; }
}
class Re implements Shape {
    int w;
    Re(int v) { w = v; }
    public int area() { return w * 2; }
}
class Tr implements Shape {
    int b;
    Tr(int v) { b = v; }
    public int area() { return b * 3; }
}
class Ci implements Shape {
    int r;
    Ci(int v) { r = v; }
    public int area() { return r * 7; }
}
class Driver {
    static int poke(Shape sh) { return sh.area(); }
}
class Main {
    static void main() { Sys.print("" + Driver.poke(new Sq(2))); }
}
"""

FUSION_SOURCE = """
class Box {
    int total;
    int count;
    Box() { total = 0; count = 0; }
    public int getTotal() { return total; }
    public void bump() { count = count + 1; }
    public void add(int s) { total = total + s; }
}
class Main {
    static int mix(int a, int b) {
        int s = (a + b) * 2;
        return s;
    }
    static void main() {
        Box box = new Box();
        int s = 0;
        for (int i = 0; i < 10; i++) {
            s = s + i;
            box.add(mix(i, s));
            box.bump();
        }
        Sys.print("" + box.getTotal() + "/" + box.count + "/" + s);
    }
}
"""


def _quick_vm(source, adaptive=None, telemetry=None):
    return VM(
        compile_source(source),
        adaptive_config=adaptive or INTERP_ONLY,
        telemetry=telemetry,
    )


def _method(vm, cls, key):
    return vm.classes[cls].own_methods[key]


def _make(vm, cls, *args):
    rc = vm.classes[cls]
    obj = rc.allocate(vm)
    rc.own_methods[f"<init>/{len(args)}"].compiled.invoke(
        vm, [obj, *args]
    )
    return obj


def _site_ic(vm, qname_prefix):
    ics = [
        ic for ic in vm.quickener.caches
        if ic.site_name.startswith(qname_prefix)
    ]
    assert len(ics) == 1, f"expected one IC at {qname_prefix}: {ics}"
    return ics[0]


# ---------------------------------------------------------------------------
# Opcode metadata
# ---------------------------------------------------------------------------

def test_every_quick_op_has_op_info():
    for op in QUICK_OPS:
        assert op in OP_INFO, f"{op!r} missing OP_INFO"
        assert OP_INFO[op].mnemonic


def test_fused_ops_are_quick_ops_with_known_span():
    for fused in FUSION_PAIRS.values():
        assert fused in QUICK_OPS
        assert FUSED_SPAN[fused] == 2
    for op, span in FUSED_SPAN.items():
        assert op in QUICK_OPS
        assert span >= 2


def test_entry_ticks_pin():
    """ENTRY_TICKS has exactly one definition (repro.vm.adaptive);
    every other module's name must be that object, not a copy that
    could drift."""
    from repro.vm import adaptive
    from repro.vm.compiled import ENTRY_TICKS
    from repro.vm.interpreter import _ENTRY_TICKS

    assert ENTRY_TICKS is adaptive.ENTRY_TICKS
    assert _ENTRY_TICKS is adaptive.ENTRY_TICKS
    assert adaptive.AdaptiveConfig.ENTRY_TICKS is adaptive.ENTRY_TICKS


# ---------------------------------------------------------------------------
# Structural invariants of quicken_method
# ---------------------------------------------------------------------------

def test_quickening_preserves_slots_and_shared_instrs():
    """Fusion is slot-preserving: same length, covered slots keep an
    independently executable instruction (so branches into them work),
    and PUTFIELD/PUTSTATIC slots keep the *original* Instr object so
    state hooks installed mid-run stay live in quick code."""
    vm = _quick_vm(FUSION_SOURCE)
    checked = 0
    for rm in vm.all_runtime_methods():
        code, quick = rm.info.code, rm.quick_code
        assert quick is not None and len(quick) == len(code)
        for i, instr in enumerate(code):
            q = quick[i]
            assert q.op == instr.op or q.op in QUICK_OPS
            if instr.op in (Op.PUTFIELD, Op.PUTSTATIC):
                assert q is instr
            span = FUSED_SPAN.get(q.op, 1)
            for j in range(i + 1, min(i + span, len(code))):
                cov = quick[j]
                assert cov.op == code[j].op or cov.op in QUICK_OPS, (
                    f"{rm.qualified_name}@{j}: covered slot lost its "
                    f"standalone form ({cov.op!r} vs {code[j].op!r})"
                )
            if OP_INFO[instr.op].is_branch and isinstance(instr.arg, int):
                t = instr.arg
                assert quick[t].op == code[t].op or quick[t].op in QUICK_OPS
        checked += 1
    assert checked > 3


def test_idiom_fusions_fire():
    vm = _quick_vm(FUSION_SOURCE)
    getter = {i.op for i in _method(vm, "Box", "getTotal").quick_code}
    assert Op.GETFIELD_RETURN in getter
    bump = {i.op for i in _method(vm, "Box", "bump").quick_code}
    assert Op.FIELD_INC in bump
    main = {i.op for i in _method(vm, "Main", "main").quick_code}
    assert Op.ITER_LT_JF in main
    assert Op.INC in main
    mix = {i.op for i in _method(vm, "Main", "mix").quick_code}
    assert Op.LOAD_ADD in mix  # (a + b) * 2: ADD's successor doesn't pair


def test_fusion_priority_guard_keeps_add_for_putfield():
    """``total = total + s``: the (LOAD s, ADD) pair must NOT fuse to
    LOAD_ADD, because ADD fuses better with its PUTFIELD successor —
    greedy left-to-right pairing would leave a bare PUTFIELD dispatch
    on the hot path."""
    vm = _quick_vm(FUSION_SOURCE)
    rm = _method(vm, "Box", "add")
    code, quick = rm.info.code, rm.quick_code
    add_idx = next(
        i for i, instr in enumerate(code) if instr.op is Op.ADD
    )
    assert quick[add_idx].op is Op.ADD_PUTFIELD
    assert quick[add_idx - 1].op is Op.LOAD, (
        "the LOAD feeding ADD_PUTFIELD must stay unfused"
    )


# ---------------------------------------------------------------------------
# Inline-cache state machine
# ---------------------------------------------------------------------------

def test_interface_ic_mono_poly_megamorphic():
    vm = _quick_vm(POLY_SOURCE, telemetry=True)
    vm.initialize()
    ic = _site_ic(vm, "Driver.poke")
    assert isinstance(ic, InterfaceIC)
    assert ic.k0 is None and ic.k1 is None

    sq, re_, tr, ci = (
        _make(vm, cls, 2) for cls in ("Sq", "Re", "Tr", "Ci")
    )
    poke = lambda obj: vm.call_static("Driver", "poke", [obj])

    assert poke(sq) == 4  # miss -> monomorphic
    assert ic.k0 is sq.tib and ic.k1 is None
    assert poke(sq) == 4  # hit on k0
    counters = vm.telemetry.summary()["counters"]
    assert counters["ic.hit"] >= 1 and counters["ic.miss"] >= 1

    assert poke(re_) == 4  # miss -> 2-entry polymorphic
    assert ic.k1 is re_.tib

    assert poke(tr) == 6  # third distinct TIB -> megamorphic
    quick = _method(vm, "Driver", "poke").quick_code
    assert quick[ic.index] is ic.original
    assert quick[ic.index].op is Op.INVOKEINTERFACE
    assert ic.k0 is None and ic.k1 is None
    counters = vm.telemetry.summary()["counters"]
    assert counters["ic.megamorphic"] == 1

    # The de-quickened site still dispatches correctly for everyone.
    assert [poke(o) for o in (sq, re_, tr, ci)] == [4, 4, 6, 14]


def test_virtual_ic_hits_after_monomorphic_call():
    vm = _quick_vm(FUSION_SOURCE, telemetry=True)
    vm.initialize()
    box = _make(vm, "Box")
    ics = [
        ic for ic in vm.quickener.caches
        if isinstance(ic, VirtualIC) and ic.site_name.startswith("Main.main")
    ]
    assert ics, "Main.main has virtual call sites"
    vm.run()
    counters = vm.telemetry.summary()["counters"]
    assert counters["ic.hit"] > counters["ic.miss"]
    assert box.fields == [0, 0]  # untouched bystander


def test_flush_resets_cache_keys():
    vm = _quick_vm(POLY_SOURCE)
    vm.initialize()
    ic = _site_ic(vm, "Driver.poke")
    sq = _make(vm, "Sq", 3)
    assert vm.call_static("Driver", "poke", [sq]) == 9
    assert ic.k0 is not None
    flushes = vm.quickener.flushes
    vm.flush_inline_caches()
    # Flush clears *keys only*: a concurrent session racing the flush
    # may still be running a just-read value, and in-place patches only
    # ever replace targets with equivalent ones (repro.server).
    assert ic.k0 is None and ic.k1 is None
    assert vm.quickener.flushes == flushes + 1
    # The next call misses, re-resolves, and works.
    assert vm.call_static("Driver", "poke", [sq]) == 9
    assert ic.k0 is sq.tib


def test_recompile_install_flushes_caches():
    """install_general patches TIB entries in place (identity
    unchanged), so every adaptive promotion must flush the ICs."""
    vm = _quick_vm(FUSION_SOURCE, adaptive=AGGRESSIVE)
    assert vm.quickener.flushes == 0
    vm.run()
    assert vm.compile_stats.events, "nothing promoted — test is vacuous"
    assert vm.quickener.flushes > 0


# ---------------------------------------------------------------------------
# Behavioral equivalence
# ---------------------------------------------------------------------------

TORTURE_SOURCE = """
interface Walker {
    int step(int x);
}
class Hare implements Walker {
    int skip;
    Hare(int s) { skip = s; }
    public int step(int x) { return x + skip; }
}
class Tortoise implements Walker {
    public int step(int x) { return x + 1; }
}
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static void main() {
        Walker[] ws = new Walker[6];
        for (int i = 0; i < 6; i++) {
            if (i % 2 == 0) { ws[i] = new Hare(i); }
            else { ws[i] = new Tortoise(); }
        }
        int acc = 0;
        for (int r = 0; r < 40; r++) {
            for (int i = 0; i < 6; i++) {
                if (r % 3 == 0) { acc = acc + 1; }
                acc = ws[i].step(acc) - 1;
            }
            acc = acc % 100000;
        }
        Sys.print("" + acc + ":" + fib(12));
    }
}
"""


@pytest.mark.parametrize("source", [FUSION_SOURCE, TORTURE_SOURCE,
                                    POLY_SOURCE])
def test_quicken_on_off_byte_identical(source):
    for adaptive in (INTERP_ONLY, AGGRESSIVE):
        on = _quick_vm(source, adaptive=adaptive)
        off = dequicken_all(_quick_vm(source, adaptive=adaptive))
        assert on.run().output == off.run().output


NULL_READ_SOURCE = """
class Cell {
    int v;
    Cell(int x) { v = x; }
}
class Main {
    static Cell hole;
    static int read(Cell c) {
        int k = 1;
        return c.v + k;
    }
    static void main() {
        Sys.print("" + read(new Cell(41)));
        Sys.print("" + read(hole));
    }
}
"""


def _null_read_trace(vm):
    with pytest.raises(JxStackTrace) as err:
        vm.run()
    return vm.output, str(err.value)


def test_dequickened_body_runs_pristine_getfield_in_the_one_loop():
    """A de-quickened method's body is a copy of its pristine bytecode,
    run by the same interpreter: plain GETFIELD reads the state field a
    TIB swap depends on, and reports a null receiver exactly as the
    quickened forms do."""
    from repro.mutation import build_mutation_plan
    from tests.test_analysis import SALARY

    def salary_vm():
        return VM(compile_source(SALARY),
                  mutation_plan=build_mutation_plan(SALARY),
                  adaptive_config=INTERP_ONLY)

    expected = salary_vm().run().output
    vm = dequicken_all(salary_vm())
    for rm in vm.all_runtime_methods():
        assert rm.quick_code == rm.info.code
        assert rm.quick_code is not rm.info.code
    raise_ = vm.classes["SalaryEmployee"].own_methods["raise"]
    grade = vm.unit.lookup_field("SalaryEmployee", "grade").slot
    assert grade in {
        ins.resolved for ins in raise_.quick_code if ins.op is Op.GETFIELD
    }, "reads the state field through pristine GETFIELD"
    assert vm.run().output == expected

    quick_out, quick_trace = _null_read_trace(
        _quick_vm(NULL_READ_SOURCE)
    )
    pristine = dequicken_all(_quick_vm(NULL_READ_SOURCE))
    read = _method(pristine, "Main", "read")
    assert Op.GETFIELD in {ins.op for ins in read.quick_code}
    out, trace = _null_read_trace(pristine)
    assert (out, trace) == (quick_out, quick_trace)
    assert quick_out == "42\n"
    assert "null receiver reading field 'v'" in trace
    assert "Main.read (line 10)" in trace
