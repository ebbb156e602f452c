"""``jx lint`` — whole-program static verification of the mutation
invariants (the analysis framework's user-facing entry point).

Aggregates every client check over a *built* VM (the link state is the
ground truth: hooks installed, plans attached, bodies possibly
quickened):

* **hook-completeness / spec-safety** — every PUTFIELD/PUTSTATIC that
  can reach a state field of an attached plan carries its hook, and
  every coalesce-deferred hook's barrier-free region is proven on the
  CFG (:func:`repro.analysis.specsafety.site_findings`);
* **ctor-exit hooks** — every constructor of an instance-state mutable
  class carries the class's constructor-exit hook (Fig. 4, first
  clause);
* **quick-code hook liveness** — a quickened body must observe the same
  hooks as the pristine body: fused superinstructions carry the *shared*
  PUTFIELD :class:`~repro.bytecode.instructions.Instr`, never a copy;
* **lifetime-escape** — the plan's published lifetime constants are
  re-proven by the flow-sensitive escape analysis
  (:func:`repro.analysis.specsafety.lifetime_findings`);
* **plan downgrades** — classes the attach-time audit already had to
  detach are reported (the program runs correctly but unspecialized);
* **translation validation** (``--tv``) — every transformed code
  surface (quickened/fused bodies, OSR entries, shared specialized
  bodies) is re-proven equivalent to its pristine
  source, and every runtime enforcement downgrade is surfaced
  (:mod:`repro.analysis.tv`).

Zero findings on a shipped workload is an acceptance criterion; CI runs
``jx lint --strict`` (and ``--tv``) over all of them.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bytecode.opcodes import Op, op_width
from repro.analysis.findings import Finding
from repro.analysis.specsafety import lifetime_findings, site_findings


def _runtime_methods(vm: Any) -> Iterable[Any]:
    for rc in vm.classes.values():
        yield from rc.own_methods.values()


def ctor_hook_findings(vm: Any) -> list[Finding]:
    """Fig. 4's first clause, verified: every constructor of an
    instance-state mutable class must carry the class's ctor-exit hook
    (a freshly constructed object must immediately get its special TIB
    when its birth state is hot)."""
    manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        return []
    findings = []
    for name, mcr in manager.mcrs.items():
        if not mcr.instance_slots:
            continue
        expected = manager.ctor_hooks.get(name)
        for rm in mcr.rc.own_methods.values():
            if not rm.info.is_constructor:
                continue
            if expected is None or rm.ctor_exit_hook is not expected:
                findings.append(Finding(
                    "hook-completeness", rm.info.qualified_name, -1, name,
                    "constructor of an instance-state mutable class "
                    "lacks the class's constructor-exit hook",
                ))
    return findings


def quick_code_findings(vm: Any) -> list[Finding]:
    """Quickened bodies must observe the same state hooks as pristine
    bytecode.  For every hooked PUTFIELD at slot ``j`` of ``info.code``,
    the quickened instruction *executing* that slot must carry the
    shared ``Instr`` object (hooks are read live off it): either slot
    ``j`` itself holds it, or the covering superinstruction
    (ADD_PUTFIELD / FIELD_INC) packs it in its arg."""
    findings = []
    for rm in _runtime_methods(vm):
        qc = rm.quick_code
        if not qc:
            continue
        code = rm.info.code
        hooked = [
            j for j, ins in enumerate(code)
            if ins.op is Op.PUTFIELD and ins.state_hook is not None
        ]
        if not hooked:
            continue
        start_of: dict[int, int] = {}
        i, n = 0, len(qc)
        while i < n:
            width = op_width(qc[i].op)
            for k in range(i, min(i + width, n)):
                start_of[k] = i
            i += width
        for j in hooked:
            start = start_of.get(j, j)
            q = qc[start]
            live = (
                q is code[j]
                or (q.op is Op.ADD_PUTFIELD and q.arg is code[j])
                or (q.op is Op.FIELD_INC and q.arg[1] is code[j])
            )
            if not live:
                cls_name, field_name = code[j].arg
                findings.append(Finding(
                    "quick-code", rm.info.qualified_name, j,
                    f"{cls_name}.{field_name}",
                    "quickened body does not execute the hooked "
                    "PUTFIELD instruction (hook not live in quick code)",
                ))
    return findings


def downgrade_findings(vm: Any) -> list[Finding]:
    manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        return []
    return [
        Finding(
            "spec-safety", name, -1, name,
            f"plan downgraded at attach by the specialization-safety "
            f"audit ({len(reasons)} finding(s)); the class runs "
            f"unspecialized",
        )
        for name, reasons in sorted(manager.downgraded_classes.items())
    ]


def lint_vm(vm: Any, *, tv: bool = False) -> list[Finding]:
    """All checks over a built VM; empty list means the mutation
    invariants are statically proven for this link state.  With ``tv``,
    the translation validator re-proves every transformed code surface
    as well (:func:`repro.analysis.tv.tv_findings`)."""
    findings = site_findings(vm)
    findings += ctor_hook_findings(vm)
    findings += quick_code_findings(vm)
    findings += lifetime_findings(vm)
    findings += downgrade_findings(vm)
    if tv:
        from repro.analysis.tv import tv_findings

        findings += tv_findings(vm)
    return findings


def lint_source(
    source: str,
    *,
    filename: str = "<lint>",
    entry_class: str = "Main",
    entry_method: str = "main",
    plan: Any = None,
    mutate: bool = True,
    tv: bool = False,
) -> list[Finding]:
    """Compile ``source``, build its mutation plan (unless given), link
    a VM — installing hooks exactly as a real run would — and lint it."""
    from repro.lang import compile_source
    from repro.mutation import build_mutation_plan
    from repro.vm.runtime import VM

    unit = compile_source(
        source, filename=filename,
        entry_class=entry_class, entry_method=entry_method,
    )
    if plan is None and mutate:
        plan = build_mutation_plan(source, entry_class=entry_class)
    vm = VM(unit, mutation_plan=plan)
    return lint_vm(vm, tv=tv)


def lint_workload(spec: Any, *, tv: bool = False) -> list[Finding]:
    """Lint one registered workload under its production configuration:
    the plan comes from the profiling source (as ``jx run``/``compare``
    build it) and the linted program is the bench-scale source."""
    from repro.lang import compile_source
    from repro.mutation import build_mutation_plan
    from repro.vm.runtime import VM

    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )
    unit = compile_source(
        spec.source(spec.bench_scale),
        filename=f"<{spec.name}>",
        entry_class=spec.entry_class,
        entry_method=spec.entry_method,
    )
    vm = VM(unit, mutation_plan=plan)
    return lint_vm(vm, tv=tv)
