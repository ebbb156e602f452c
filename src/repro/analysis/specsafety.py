"""Specialization-safety audit (``jx lint`` client 3).

Special-TIB code is selected *through* the TIB, so it is only sound if
no static path stores to a bound state field and then reaches anything
that can observe the object — a dispatch, a call, a raise, or the
method exit — without an intervening swap hook re-evaluating the TIB.

Hooked writes satisfy this trivially: the hook runs at the write.  The
interesting case is a **coalesce-deferred** write, whose hook only
counts the skipped swap; its safety obligation is exactly the
path property above, and this module proves it on the instruction CFG:

    a deferred store ``D`` to receiver local ``r`` is safe iff every
    path leaving ``D`` reaches another hooked store to ``r`` while
    crossing only TIB-transparent instructions and no redefinition of
    ``r`` — where loop back-edges count as leaving the region, so
    deferral obligations are well-founded (two stores in a loop cannot
    justify each other around the back edge).

The same fixed-point fact is what :mod:`repro.mutation.coalesce` uses
to *install* deferred hooks, which is why its conservative linear-scan
barriers became CFG facts: any branch used to end a region; now only
paths that actually escape the region do.

:func:`audit_attached_plans` groups violations per mutable-class plan
so :class:`~repro.mutation.manager.MutationManager` can downgrade a
violating class (drop its special TIBs) instead of running unsound
specialized code; :func:`lifetime_findings` re-proves the plan's
lifetime constants with the CFG escape analysis.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op
from repro.analysis.cfg import InstrCFG
from repro.analysis.dataflow import solve_backward
from repro.analysis.findings import Finding
from repro.bytecode.stacksim import StackEvent, SymValue, walk_method

#: Opcodes that can execute inside a stale-TIB window: non-raising,
#: no control transfer, no dispatch, no field store.  This is the
#: single source of truth for region transparency —
#: ``coalesce.SAFE_BETWEEN`` aliases it.
TIB_TRANSPARENT = frozenset({
    Op.CONST, Op.LOAD, Op.STORE, Op.POP, Op.DUP, Op.SWAP, Op.NOP,
    Op.ADD, Op.SUB, Op.MUL, Op.FDIV, Op.NEG, Op.I2D,
    Op.SHL, Op.SHR, Op.BAND, Op.BOR, Op.BXOR,
    Op.CMP_LT, Op.CMP_LE, Op.CMP_GT, Op.CMP_GE, Op.CMP_EQ, Op.CMP_NE,
    Op.NOT, Op.CONCAT, Op.GETSTATIC, Op.INSTANCEOF,
})

#: Branches transfer control but execute nothing observable; a stale
#: TIB may cross them as long as *every* outgoing path stays safe.
_PURE_BRANCHES = frozenset({Op.JUMP, Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE})


class HookSiteRecorder(StackEvent):
    """Maps each PUTFIELD carrying one of ``hooks`` to its receiver
    local (via the abstract stack simulation); hooked writes whose
    receiver is not a plain local land in :attr:`opaque`."""

    def __init__(self, hooks: Iterable[Any]) -> None:
        self.hooks = [h for h in hooks if h is not None]
        #: instruction index -> receiver local slot
        self.sites: dict[int, int] = {}
        #: hooked writes with non-local receiver shapes
        self.opaque: set[int] = set()

    def on_putfield(
        self, index: int, instr: Instr, receiver: SymValue, value: SymValue
    ) -> None:
        if not any(instr.state_hook is h for h in self.hooks):
            return
        kind = receiver.kind
        if kind == ("this",):
            self.sites[index] = 0
        elif kind[0] == "local":
            self.sites[index] = kind[1]
        else:
            self.opaque.add(index)


def must_reach_states(
    method: MethodInfo,
    receiver_local: int,
    hooked_sites: dict[int, int],
) -> list[bool]:
    """Per-instruction fact: "execution starting here definitely runs a
    hooked store to ``receiver_local`` before anything can observe the
    object's TIB".

    A backward *must* analysis (boolean lattice, AND join) over the
    forward-only CFG: back edges are redirected to EXIT (= False), so
    the greatest fixed point is reached on an acyclic graph and a
    deferred write can only be justified by strictly-later stores.
    """
    code = method.code
    cfg = InstrCFG(code)
    succs = [cfg.forward_succs(i) for i in range(len(code))]
    succs.append([])  # EXIT

    def transfer(i: int, out: bool) -> bool:
        if hooked_sites.get(i) == receiver_local:
            return True  # the hooked store itself re-evaluates (or is
            #              a deferred store with its own obligation)
        instr = code[i]
        op = instr.op
        if op in _PURE_BRANCHES:
            return out
        if op not in TIB_TRANSPARENT:
            return False  # raise / call / dispatch / store / exit
        if op is Op.STORE and instr.arg == receiver_local:
            return False  # later stores would target a different object
        return out

    return solve_backward(
        succs, transfer, join=lambda a, b: a and b, top=True,
        boundary={cfg.exit: False},
    )


def deferral_is_safe(
    method: MethodInfo,
    site: int,
    receiver_local: int,
    hooked_sites: dict[int, int],
    states: list[bool] | None = None,
) -> bool:
    """Whether the hooked store at ``site`` may defer its
    re-evaluation: every path leaving it must reach a later hooked
    store to the same receiver local before any barrier."""
    if states is None:
        states = must_reach_states(method, receiver_local, hooked_sites)
    cfg = InstrCFG(method.code)
    succs = cfg.forward_succs(site)
    return bool(succs) and all(states[s] for s in succs)


# ---------------------------------------------------------------------------
# Site-level findings over an attached VM
# ---------------------------------------------------------------------------

def _plan_key_sets(manager: Any) -> tuple[dict, dict]:
    """(instance field key -> class names, static field key -> class
    names) over the *attached* plans (downgraded classes excluded)."""
    instance: dict[str, list[str]] = {}
    static: dict[str, list[str]] = {}
    for name, mcr in manager.mcrs.items():
        for spec in mcr.plan.instance_fields:
            instance.setdefault(spec.key, []).append(name)
        for spec in mcr.plan.static_fields:
            static.setdefault(spec.key, []).append(name)
    return instance, static


def site_findings(vm: Any, manager: Any = None) -> list[Finding]:
    """Hook-completeness + deferral-safety findings for every
    PUTFIELD/PUTSTATIC that resolves to a state field of an attached
    plan.  Check names: ``hook-completeness`` for missing/wrong hooks,
    ``spec-safety`` for deferred hooks whose barrier-free region the
    CFG cannot prove."""
    if manager is None:
        manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        return []
    unit = vm.unit
    instance_keys, static_keys = _plan_key_sets(manager)
    if not instance_keys and not static_keys:
        return []
    instance_hook = manager._instance_hook
    deferred_hook = manager._deferred_hook
    findings: list[Finding] = []
    for method in unit.all_methods():
        if method.is_abstract or not method.code:
            continue
        recorder: HookSiteRecorder | None = None
        states_by_local: dict[int, list[bool]] = {}
        for i, instr in enumerate(method.code):
            if instr.op is Op.PUTFIELD:
                cls_name, field_name = instr.arg
                finfo = unit.lookup_field(cls_name, field_name)
                if finfo is None:
                    continue  # cannot be a state field (plan resolves)
                key = f"{finfo.declaring_class}.{finfo.name}"
                if key not in instance_keys:
                    continue
                hook = instr.state_hook
                if hook is None:
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "state-field write carries no swap hook; this "
                        "store would silently skip TIB re-evaluation",
                    ))
                    continue
                if hook is deferred_hook and deferred_hook is not None:
                    if recorder is None:
                        recorder = HookSiteRecorder(
                            [instance_hook, deferred_hook]
                        )
                        walk_method(method, recorder, unit=unit)
                    local = recorder.sites.get(i)
                    if local is None:
                        findings.append(Finding(
                            "spec-safety", method.qualified_name, i, key,
                            "deferred hook on a write whose receiver is "
                            "not a provably-constant local",
                        ))
                        continue
                    states = states_by_local.get(local)
                    if states is None:
                        states = must_reach_states(
                            method, local, recorder.sites
                        )
                        states_by_local[local] = states
                    if not deferral_is_safe(
                        method, i, local, recorder.sites, states
                    ):
                        findings.append(Finding(
                            "spec-safety", method.qualified_name, i, key,
                            "a path from this deferred state write "
                            "reaches a barrier before the region's "
                            "re-evaluating write (stale TIB observable)",
                        ))
                elif hook is not instance_hook:
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "state-field write carries an unrecognized hook",
                    ))
            elif instr.op is Op.PUTSTATIC:
                cls_name, field_name = instr.arg
                finfo = unit.lookup_field(cls_name, field_name)
                if finfo is None:
                    continue
                key = f"{finfo.declaring_class}.{finfo.name}"
                if key not in static_keys:
                    continue
                if instr.state_hook is not manager.static_hooks.get(key):
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "static state-field write does not carry its "
                        "class's static swap hook",
                    ))
    return findings


def audit_attached_plans(
    manager: Any, findings: list[Finding] | None = None
) -> dict[str, list[Finding]]:
    """Group site findings by the mutable-class plan they violate.

    Any class with at least one finding runs unsound specialized code
    if left attached; the manager downgrades it (see
    ``MutationManager._audit_hooks``)."""
    if findings is None:
        findings = site_findings(manager.vm, manager)
    instance_keys, static_keys = _plan_key_sets(manager)
    owners: dict[str, list[str]] = {}
    for key, names in instance_keys.items():
        owners.setdefault(key, []).extend(names)
    for key, names in static_keys.items():
        owners.setdefault(key, []).extend(names)
    per_class: dict[str, list[Finding]] = {}
    for f in findings:
        for name in owners.get(f.subject, ()):
            per_class.setdefault(name, []).append(f)
    return per_class


# ---------------------------------------------------------------------------
# Lifetime-constant re-validation
# ---------------------------------------------------------------------------

def lifetime_findings(vm: Any) -> list[Finding]:
    """Re-prove the plan's published lifetime constants with the CFG
    escape analysis: a plan entry the analysis no longer derives means
    the specialization inliner would bind a value some path can change."""
    manager = getattr(vm, "mutation_manager", None)
    if manager is None or not manager.plan.lifetime_constants:
        return []
    from repro.mutation.lifetime import analyze_lifetime_constants

    fresh = analyze_lifetime_constants(
        vm.unit, list(manager.plan.classes), engine="cfg"
    )
    findings: list[Finding] = []
    for key, info in manager.plan.lifetime_constants.items():
        proved = fresh.get(key)
        if proved is None:
            findings.append(Finding(
                "lifetime-escape", key.rpartition(".")[0], -1, key,
                "plan binds lifetime constants through this reference "
                "field, but the escape analysis cannot prove it "
                "non-escaping / single-constructor",
            ))
            continue
        for fname, value in info.field_values_by_name.items():
            got = proved.field_values_by_name.get(fname)
            if got != value:
                findings.append(Finding(
                    "lifetime-escape", key.rpartition(".")[0], -1, key,
                    f"plan binds {info.target_class}.{fname}={value!r} "
                    f"but the analysis derives {got!r}",
                ))
    return findings
