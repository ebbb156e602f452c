"""Stack-simulation and profiler-layer unit tests."""

from repro.lang import compile_source
from repro.mutation.plan import StateFieldSpec
from repro.bytecode.stacksim import StackEvent, walk_method
from repro.profiling import ValueProfiler, profile_methods
from repro.vm.intrinsics import INTRINSICS, IntrinsicContext


class Recorder(StackEvent):
    def __init__(self):
        self.branches = []
        self.putfields = []
        self.calls = []
        self.returns = []
        self.stores = []

    def on_branch(self, i, instr, cond):
        self.branches.append(cond)

    def on_putfield(self, i, instr, recv, val):
        self.putfields.append((instr.arg, recv.kind, val.kind))

    def on_call(self, i, instr, args):
        self.calls.append([a.kind for a in args])

    def on_return(self, i, instr, val):
        self.returns.append(val.kind)

    def on_local_store(self, i, instr, local, val):
        self.stores.append((local, val.kind))


def walk(source, cls, key):
    unit = compile_source(source)
    method = unit.classes[cls].methods[key]
    rec = Recorder()
    walk_method(method, rec, unit=unit)
    return rec


def test_branch_taint_from_field_loads():
    rec = walk(
        """
        class C {
            int mode;
            int other;
            public int f() {
                if (mode + other == 3) { return 1; }
                return 0;
            }
        }
        class Main { static void main() { } }
        """,
        "C", "f",
    )
    assert len(rec.branches) == 1
    assert rec.branches[0].taint == {"C.mode", "C.other"}


def test_const_putfield_in_ctor_detected():
    rec = walk(
        """
        class C {
            int rows;
            C() { rows = 24; }
        }
        class Main { static void main() { } }
        """,
        "C", "<init>/0",
    )
    assert rec.putfields == [
        (("C", "rows"), ("this",), ("const", 24))
    ]


def test_new_value_flows_to_putfield():
    rec = walk(
        """
        class S { }
        class C {
            S s;
            C() { s = new S(); }
        }
        class Main { static void main() { } }
        """,
        "C", "<init>/0",
    )
    arg, recv, val = rec.putfields[0]
    assert val == ("new", "S", "<init>/0")


def test_return_of_field_load_tracked():
    rec = walk(
        """
        class C {
            int v;
            public int get() { return v; }
        }
        class Main { static void main() { } }
        """,
        "C", "get",
    )
    assert rec.returns[0][0] == "fieldload"
    assert rec.returns[0][1] == "C.v"


def test_call_args_visible():
    rec = walk(
        """
        class C {
            int v;
            public void go() { use(v, 5); }
            public void use(int a, int b) { }
        }
        class Main { static void main() { } }
        """,
        "C", "go",
    )
    # [receiver this, fieldload, const]
    virtual_call = next(c for c in rec.calls if len(c) == 3)
    assert virtual_call[0] == ("this",)
    assert virtual_call[1][0] == "fieldload"
    assert virtual_call[2] == ("const", 5)


# -- profilers ---------------------------------------------------------------

PROG = """
class Hot {
    private int mode;
    Hot(int m) { mode = m; }
    public int work(int x) {
        int acc = 0;
        for (int i = 0; i < 30; i++) {
            if (mode == 0) { acc += x; } else { acc -= x; }
        }
        return acc;
    }
}
class Main {
    static void main() {
        Hot a = new Hot(0);
        Hot b = new Hot(1);
        int acc = 0;
        for (int i = 0; i < 50; i++) { acc += a.work(i) + b.work(i); }
        Sys.print("" + acc);
    }
}
"""


def test_method_profiler_ranks_hot_method_first():
    unit = compile_source(PROG)
    profile = profile_methods(unit)
    assert profile.methods[0].qualified_name == "Hot.work"
    assert profile.methods[0].share > 0.5
    assert abs(sum(m.share for m in profile.methods) - 1.0) < 1e-9
    assert "Hot.work" in profile.report(3)


def test_value_profiler_joint_histogram():
    unit = compile_source(PROG)
    spec = StateFieldSpec("Hot", "mode", False, 1.0)
    profiler = ValueProfiler(unit, {"Hot": ([spec], [])})
    profiles = profiler.run()
    histogram = profiles["Hot"].histogram
    assert histogram[((0,), ())] == 1
    assert histogram[((1,), ())] == 1
    assert "Hot" in profiler.report()


# -- intrinsics ---------------------------------------------------------------

def test_intrinsic_rng_matches_java_util_random():
    """The LCG must reproduce java.util.Random's first draws for seed 0
    (nextInt(100): 60, 48, 29, 47, 15...)."""
    ctx = IntrinsicContext(seed=0)
    draws = [ctx.rand_int(100) for _ in range(5)]
    assert draws == [60, 48, 29, 47, 15]


def test_intrinsic_table_shapes():
    for name, intr in INTRINSICS.items():
        assert intr.name == name
        assert intr.nargs >= 0
        assert isinstance(intr.returns, bool)
    assert INTRINSICS["print"].returns is False
    assert INTRINSICS["str_len"].returns is True
