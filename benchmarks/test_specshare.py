"""Specialization-sharing benchmark: the sublinear-growth acceptance gate.

Fig. 10/12 frame the cost of dynamic class hierarchy mutation as code
and TIB space growing *linearly* in the number of hot states.  Sharing
changes the model: specialized-code bytes and special-TIB space grow
with the number of *equivalence classes modulo the method's read set*,
not with the raw hot-state count.

The workload is adversarial for the linear model: a ``Meter`` class
with two state fields where the hot mutable method reads only one.  Six
hot states (3 read-values x 2 unread values) collapse to three
equivalence classes, so sharing must cut special-code bytes and special
TIB space by half — comfortably past the >=30% acceptance bar — while
producing byte-identical output with sharing on and off.

Results land in ``BENCH_specshare.json`` for cross-PR tracking.
"""

from conftest import write_bench_scalar

from repro import VM, VMConfig, compile_source
from repro.mutation.plan import (
    HotState,
    MutableClassPlan,
    MutationPlan,
    StateFieldSpec,
)
from repro.vm.adaptive import AdaptiveConfig

MAX_SHARE_RATIO = 0.70  # acceptance: >=30% cut in special-code bytes

SOURCE = """
class Meter {
    private int band;
    int zone;
    int acc;
    Meter(int b, int z) { band = b; zone = z; }
    public void setBand(int b) { band = b; }
    public void setZone(int z) { zone = z; }
    public int charge(int units) {
        if (band == 0) { return units * 2; }
        if (band == 1) { return units * 3 + 1; }
        if (band == 2) { return units * 5 + 2; }
        if (band == 3) { return units * 7 + 3; }
        if (band == 4) { return units * 11 + 4; }
        if (band == 5) { return units * 13 + 5; }
        if (band == 6) { return units * 17 + 6; }
        return units * 19 + 7;
    }
    public void accrue(int u) { acc = acc + u; }
}
class Main {
    static Meter[] ms;
    static void main() {
        ms = new Meter[6];
        for (int i = 0; i < 6; i++) { ms[i] = new Meter(i % 3, i / 3); }
        int total = 0;
        for (int r = 0; r < 500; r++) {
            for (int j = 0; j < 6; j++) {
                total = total + ms[j].charge(r % 7);
                ms[j].accrue(r % 5);
            }
        }
        for (int j = 0; j < 6; j++) { total = total + ms[j].acc; }
        Sys.print("" + total);
    }
}
"""


def _plan() -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Meter"] = MutableClassPlan(
        class_name="Meter",
        instance_fields=[
            StateFieldSpec("Meter", "band", False, 1.0),
            StateFieldSpec("Meter", "zone", False, 1.0),
        ],
        # 3 read values x 2 unread values = 6 hot states, 3 equivalence
        # classes modulo charge's read set {band}.
        hot_states=[
            HotState((b, z), ()) for b in (0, 1, 2) for z in (0, 1)
        ],
        mutable_methods=["charge"],
    )
    return plan


def _leg(spec_share: bool):
    vm = VM(
        compile_source(SOURCE),
        mutation_plan=_plan(),
        adaptive_config=AdaptiveConfig(promote_ticks=32),
        config=VMConfig(spec_share=spec_share),
    )
    out = vm.run().output
    return vm, out


def test_sharing_cuts_special_code_and_tib_space():
    share_vm, share_out = _leg(True)
    noshare_vm, reference = _leg(False)

    # Semantics first: both legs byte-identical.
    assert reference
    assert share_out == reference, "share-on leg diverged from reference"

    rm_share = share_vm.lookup("Meter", "charge")
    rm_noshare = noshare_vm.lookup("Meter", "charge")
    assert rm_share.general.opt_level == 2
    assert len(rm_share.specials) == len(rm_noshare.specials) == 6
    assert len({id(cm) for cm in rm_share.specials.values()}) == 3
    assert len({id(cm) for cm in rm_noshare.specials.values()}) == 6

    # The acceptance gate: >=30% cut in specialized-code bytes.  Here
    # the collapse is exactly 6 -> 3 bodies, i.e. a ~50% cut.
    bytes_share = share_vm.compile_stats.special_code_bytes
    bytes_noshare = noshare_vm.compile_stats.special_code_bytes
    assert 0 < bytes_share <= MAX_SHARE_RATIO * bytes_noshare

    # Sublinear TIB space: 6 hot states on 3 merged special TIBs.
    assert share_vm.mutation_stats.special_tibs_created == 3
    assert share_vm.mutation_stats.special_tibs_shared == 3
    assert noshare_vm.mutation_stats.special_tibs_created == 6
    tib_share = share_vm.tib_space.special_tib_bytes
    tib_noshare = noshare_vm.tib_space.special_tib_bytes
    assert 0 < tib_share <= MAX_SHARE_RATIO * tib_noshare

    write_bench_scalar(
        "specshare",
        hot_states=6,
        equivalence_classes=3,
        special_code_bytes_share=bytes_share,
        special_code_bytes_noshare=bytes_noshare,
        code_ratio=round(bytes_share / bytes_noshare, 4),
        special_tib_bytes_share=tib_share,
        special_tib_bytes_noshare=tib_noshare,
        tib_ratio=round(tib_share / tib_noshare, 4),
        specials_compiled_share=share_vm.mutation_stats.specials_compiled,
        specials_shared=share_vm.mutation_stats.specials_shared,
        max_ratio_gate=MAX_SHARE_RATIO,
    )
