"""Online mutation manager tests: Fig. 4 / Fig. 5 behaviors."""

import pytest

from repro import VM, compile_source
from repro.mutation import build_mutation_plan
from repro.workloads import get_workload
from tests.helpers import AGGRESSIVE, assert_mutation_equivalent

SALARY = """
class Employee {
    double salary;
    public void raise() { }
}
class SalaryEmployee extends Employee {
    private int grade;
    SalaryEmployee(int g) { grade = g; }
    public void promote() { grade = grade + 1; }
    public void demoteTo(int g) { grade = g; }
    public void raise() {
        if (grade == 0) { salary += 1.0; }
        else if (grade == 1) { salary += 2.0; }
        else if (grade == 2) { salary *= 1.01; }
        else { salary += 4.0; }
    }
}
class Main {
    static void main() {
        Employee[] emps = new Employee[8];
        for (int i = 0; i < 8; i++) { emps[i] = new SalaryEmployee(i % 4); }
        for (int r = 0; r < 600; r++) {
            for (int j = 0; j < 8; j++) { emps[j].raise(); }
        }
        double total = 0.0;
        for (int j = 0; j < 8; j++) { total += emps[j].salary; }
        Sys.print("" + total);
    }
}
"""


def mutated_vm(source, seed=42):
    plan = build_mutation_plan(source, seed=seed)
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE, seed=seed)
    vm.run()
    return vm


def test_special_tibs_created_per_hot_state():
    vm = mutated_vm(SALARY)
    rc = vm.classes["SalaryEmployee"]
    assert len(rc.special_tibs) == 4
    for tib in rc.special_tibs.values():
        assert tib.is_special
        assert tib.type_info is rc


def test_specials_generated_at_opt2(capsys=None):
    vm = mutated_vm(SALARY)
    rm = vm.classes["SalaryEmployee"].own_methods["raise"]
    assert rm.compiled.opt_level == 2
    assert len(rm.specials) == 4
    for cm in rm.specials.values():
        assert cm.opt_level == 2
        assert cm.is_special
        # Specialized code is smaller: the grade dispatch is gone.
        assert cm.code_size_bytes < rm.compiled.code_size_bytes


def test_special_tib_entries_point_at_specials():
    vm = mutated_vm(SALARY)
    rc = vm.classes["SalaryEmployee"]
    rm = rc.own_methods["raise"]
    for key, tib in rc.special_tibs.items():
        assert tib.entries[rm.vtable_offset] is rm.specials[(key, ())]


def test_objects_point_at_matching_special_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 2])
    assert obj.tib is rc.special_tibs[(2,)]


def test_state_transition_swaps_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    assert obj.tib is rc.special_tibs[(0,)]
    rc.own_methods["promote"].compiled.invoke(vm, [obj])
    assert obj.tib is rc.special_tibs[(1,)]
    # Leaving the hot-state set restores the class TIB (Fig. 4).
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 77])
    assert obj.tib is rc.class_tib
    # And returning to a hot state swaps back.
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 3])
    assert obj.tib is rc.special_tibs[(3,)]


def test_mutation_preserves_output_under_transitions():
    source = SALARY.replace(
        "for (int j = 0; j < 8; j++) { emps[j].raise(); }",
        """for (int j = 0; j < 8; j++) {
            emps[j].raise();
            if (r % 97 == 0) {
                SalaryEmployee se = (SalaryEmployee) emps[j];
                se.demoteTo((r + j) % 5);
            }
        }""",
    )
    assert_mutation_equivalent(source)


def test_instanceof_unaffected_by_special_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 1])
    assert obj.tib.is_special
    assert obj.jx_class.is_subtype_of("SalaryEmployee")
    assert obj.jx_class.is_subtype_of("Employee")


def test_subclass_instances_never_mutated():
    source = SALARY.replace(
        "class Main {",
        """
        class Contractor extends SalaryEmployee {
            Contractor(int g) { super(g); }
        }
        class Main {
        """,
    ).replace(
        "emps[i] = new SalaryEmployee(i % 4);",
        "if (i % 2 == 0) { emps[i] = new SalaryEmployee(i % 4); }"
        " else { emps[i] = new Contractor(i % 4); }",
    )
    plan = build_mutation_plan(source)
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    contractor_rc = vm.classes["Contractor"]
    obj = contractor_rc.allocate(vm)
    contractor_rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    # Exact-class rule: the subclass instance keeps its own class TIB.
    assert obj.tib is contractor_rc.class_tib
    # And behavior matches mutation-off.
    assert_mutation_equivalent(source)


STATIC_STATE = """
class Engine {
    static int mode;   // 0 fast path (dominant), 1 debug
    public int run(int x) {
        if (mode == 0) { return x * 3; }
        return x * 3 + 1;
    }
    static void setMode(int m) { mode = m; }
}
class Main {
    static void main() {
        Engine e = new Engine();
        int total = 0;
        for (int i = 0; i < 2000; i++) {
            total += e.run(i);
            if (i == 1500) { Engine.setMode(1); }
            if (i == 1700) { Engine.setMode(0); }
        }
        Sys.print("" + total);
    }
}
"""


def test_static_only_mutable_class():
    plan = build_mutation_plan(STATIC_STATE)
    if "Engine" not in plan.classes:
        pytest.skip("profiling did not flag Engine as mutable")
    cp = plan.classes["Engine"]
    assert not cp.depends_on_instance
    assert cp.depends_on_static
    # Equivalence under static-state transitions.
    assert_mutation_equivalent(STATIC_STATE)


def test_static_state_patches_class_tib():
    plan = build_mutation_plan(STATIC_STATE)
    if "Engine" not in plan.classes:
        pytest.skip("profiling did not flag Engine as mutable")
    unit = compile_source(STATIC_STATE)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.run()
    rc = vm.classes["Engine"]
    rm = rc.own_methods["run"]
    assert rc.special_tibs == {}  # static-only: no special TIBs (§3.2.2)
    if rm.specials:
        # mode is 0 at end of run: the class TIB must hold the special.
        entry = rc.class_tib.entries[rm.vtable_offset]
        assert entry.is_special


def test_manager_describe_smoke():
    vm = mutated_vm(SALARY)
    text = vm.mutation_manager.describe()
    assert "SalaryEmployee" in text
    assert "special" in text


@pytest.mark.parametrize("workload", ["salarydb", "jbb2000", "java2xhtml"])
def test_uninstrumented_swaps_use_the_plain_closures(workload):
    """With telemetry off no mutable class pays for the recorded
    closure (``perf_counter`` and ``record_swap`` on every swap, no opt2
    inlining): each class gets ``reeval1`` or ``reeval``, and each
    single-state-field class's ctor hook carries the ``("single", …)``
    inline spec that opt2 code expands in place."""
    spec = get_workload(workload)
    source = spec.source(0.05)
    plan = build_mutation_plan(source, entry_class=spec.entry_class)
    vm = VM(compile_source(source, entry_class=spec.entry_class),
            mutation_plan=plan)
    manager = vm.mutation_manager
    reevals = manager._instance_hook.reeval_by_class
    assert reevals
    for name, mcr in manager.mcrs.items():
        reeval = reevals[name]
        if len(mcr.instance_slots) == 1:
            assert reeval.__name__ == "reeval1", name
            inline = manager.ctor_hooks[name].inline_spec
            assert inline[0] == "single", name
            assert inline[2] == mcr.instance_slots[0], name
        else:
            assert reeval.__name__ == "reeval", name
