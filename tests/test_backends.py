"""Backend-specific tests: pycodegen shapes, parity with the opt0
interpreter, interface dispatch through conflict stubs end-to-end."""

from repro import VM, compile_source
from repro.opt.lowering import lower_method
from repro.opt.pycodegen import generate_python
from repro.vm.imt import ConflictStub, imt_slot_for
from repro.vm.linker import Linker
from tests.helpers import (
    AGGRESSIVE,
    INTERP_ONLY,
    assert_all_tiers_agree,
    run_vm,
)


def compile_method_both_ways(source, cls, key, args):
    """Run one static method through the opt0 interpreter and through
    the Python backend on freshly lowered IR; returns
    (interp_result, py_result)."""
    interp_vm = VM(compile_source(source), adaptive_config=INTERP_ONLY)
    interp_result = interp_vm.call_static(cls, key, list(args))
    vm = VM(compile_source(source), adaptive_config=AGGRESSIVE)
    vm.initialize()
    rm = vm.lookup(cls, key)
    _, executor = generate_python(lower_method(rm.info), rm)
    py_result = executor(vm, list(args))
    return interp_result, py_result


ARITH = """
class M {
    static int mix(int a, int b) {
        int x = a * 3 - b / 2 + a % 7;
        if (x > 100) { x = x - (a << 1); }
        else { x = x + (b >> 1); }
        return x ^ (a & b) | 1;
    }
}
class Main { static void main() { } }
"""


def test_ir_and_python_backends_agree_on_arith():
    for a, b in [(0, 1), (5, 3), (-7, 2), (100, -41), (9999, 7)]:
        interp_result, py_result = compile_method_both_ways(
            ARITH, "M", "mix", [a, b]
        )
        assert interp_result == py_result, (a, b)


def test_single_block_function_is_straight_line():
    source = """
    class M { static int f(int x) { return x * 2 + 1; } }
    class Main { static void main() { } }
    """
    unit = compile_source(source)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rm = vm.lookup("M", "f")
    fn = lower_method(rm.info)
    from repro.opt.pipeline import OptCompiler

    cm = OptCompiler(vm).compile(rm, 2)
    assert "while True" not in cm.source_text
    assert cm.executor(vm, [21]) == 43


def test_multi_block_function_uses_loop_dispatch():
    source = """
    class M {
        static int f(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += i; }
            return acc;
        }
    }
    class Main { static void main() { } }
    """
    unit = compile_source(source)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rm = vm.lookup("M", "f")
    from repro.opt.pipeline import OptCompiler

    cm = OptCompiler(vm).compile(rm, 2)
    assert "while True" in cm.source_text
    assert cm.executor(vm, [100]) == 4950


def test_generated_code_handles_negative_index_check():
    source = """
    class M {
        static int f(int[] a, int i) { return a[i]; }
    }
    class Main {
        static void main() {
            int[] a = new int[3];
            a[1] = 7;
            int acc = 0;
            for (int r = 0; r < 600; r++) { acc += M.f(a, 1); }
            Sys.print("" + acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    assert vm.output == str(600 * 7) + "\n"
    rm = vm.lookup("M", "f")
    assert rm.compiled.opt_level == 2
    from repro.vm.values import ArrayBoundsError, VMArray
    from repro.vm.interpreter import JxStackTrace
    import pytest

    arr = VMArray("int", 3, 0)
    with pytest.raises((ArrayBoundsError, JxStackTrace)):
        rm.compiled.invoke(vm, [arr, -1])
    with pytest.raises((ArrayBoundsError, JxStackTrace)):
        rm.compiled.invoke(vm, [arr, 3])


def _colliding_interface_names(count=2):
    """Find interface method names that hash to the same IMT slot."""
    buckets = {}
    i = 0
    while True:
        name = f"op{i}"
        slot = imt_slot_for(name)
        buckets.setdefault(slot, []).append(name)
        if len(buckets[slot]) >= count:
            return buckets[slot][:count]
        i += 1


def test_interface_conflict_stub_dispatch_end_to_end():
    m1, m2 = _colliding_interface_names()
    source = f"""
    interface Both {{
        int {m1}(int x);
        int {m2}(int x);
    }}
    class Impl implements Both {{
        public int {m1}(int x) {{ return x + 1; }}
        public int {m2}(int x) {{ return x * 2; }}
    }}
    class Main {{
        static void main() {{
            Both b = new Impl();
            int acc = 0;
            for (int i = 0; i < 500; i++) {{
                acc = (b.{m1}(acc) + b.{m2}(i)) % 9973;
            }}
            Sys.print("" + acc);
        }}
    }}
    """
    unit = compile_source(source)
    linker = Linker(unit)
    linker.link()
    rc = linker.classes["Impl"]
    slot = imt_slot_for(m1)
    assert slot == imt_slot_for(m2)
    assert isinstance(rc.imt.slots[slot], ConflictStub)
    # And the program agrees across all execution tiers.
    assert_all_tiers_agree(source)


def test_string_constants_with_quotes_roundtrip_codegen():
    source = r"""
    class Main {
        static string decorate(string s) {
            return "<q attr=\"v\">" + s + "</q>";
        }
        static void main() {
            string acc = "";
            for (int i = 0; i < 400; i++) {
                acc = decorate("x" + (i % 10));
            }
            Sys.print(acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    assert vm.output == '<q attr="v">x9</q>\n'
    assert vm.lookup("Main", "decorate").compiled.opt_level == 2


def test_hookcall_codegen_runs_inlined_hook():
    """An inlined hooked constructor must still re-evaluate the TIB."""
    from repro.mutation import build_mutation_plan

    source = """
    class Item {
        private int kind;
        Item(int k) { kind = k; }
        public int price() {
            if (kind == 0) { return 10; }
            return 20;
        }
    }
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 900; i++) {
                Item it = new Item(i % 2);
                acc += it.price();
            }
            Sys.print("" + acc);
        }
    }
    """
    plan = build_mutation_plan(source)
    assert "Item" in plan.classes
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    result = vm.run()
    assert result.output == str(450 * 10 + 450 * 20) + "\n"
    # Allocation-heavy loop: the hook ran per construction (TIB swaps).
    assert vm.mutation_manager.tib_swaps > 100
    main_cm = vm.lookup("Main", "main").compiled
    if main_cm.opt_level == 2 and "allocate" in main_cm.source_text:
        # The ctor inlined into main: the hook body must appear inline.
        assert ".tib.type_info is" in main_cm.source_text
