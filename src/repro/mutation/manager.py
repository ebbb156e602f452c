"""The online mutation manager — paper §3.2.2's distributed dynamic
class mutation algorithm (Fig. 4 + Fig. 5).

At VM startup (:meth:`MutationManager.attach`):

* each mutable class that depends on at least one **instance** state
  field gets one special TIB per hot state, replicated from the class
  TIB (entries initially alias the class TIB's — lazy compilation is
  preserved);
* every PUTFIELD/PUTSTATIC writing a state field gets a state hook, and
  every constructor of a mutable class gets a constructor-exit hook
  (Fig. 4's patch points);
* mutable-class IMT entries are converted to offset entries so one IMT
  serves the class TIB and all special TIBs (paper §3.2.3);
* mutable methods are flagged for the inliner's trade-off heuristic and
  the plan's lifetime constants are published to the VM.

At runtime:

* **instance state-field writes / constructor exits** re-evaluate the
  object's instance state values and swap its TIB pointer between the
  matching special TIB and the class TIB (Fig. 4, first two clauses);
* **static state-field writes** re-evaluate each dependent class's
  static match and repoint compiled-code pointers: special-TIB entries
  for instance+static classes, class-TIB entries for static-only
  classes, JTOC cells for mutable static methods, and the
  RuntimeMethod's active pointer for private methods of static-only
  classes (Fig. 4, third clause; §3.2.3);
* **opt2 recompilation of a mutable method** (Fig. 5) generates every
  specialized version alongside the general code — with no value
  guards — then re-applies the current static match.

Three refinements over the literal Fig. 4/5:

* **Swap coalescing** (``MutationConfig.coalesce_swaps``): when a
  method writes several state fields of the same object back-to-back,
  all but the last write get a lightweight *deferred* hook that only
  counts the avoided re-evaluation; the last write of the region swaps
  once, from the final field values.  Region legality is decided
  conservatively at hook-installation time (:mod:`.coalesce`): any
  call, branch, or potentially-raising instruction between the writes
  is a barrier, so dispatch never sees a stale TIB.
* **Specialization sharing** (``VMConfig.spec_share``, default on):
  hot states equivalent modulo the state a method actually reads
  (:mod:`repro.opt.eqstate`) share one compiled body, and states
  equivalent modulo the class's whole read union share one special TIB
  — Fig. 10/12's linear code/TIB growth turns sublinear, with
  byte-identical execution.
* **Unified accounting**: every swap path — the one class-specialized
  re-evaluation closure per class (:meth:`MutationManager._make_reeval`)
  and the opt2 inline fast path — bumps ``vm.mutation_stats.tib_swaps``
  (the recorded closure through :meth:`MutationManager.record_swap`,
  the uninstrumented closures and the inline path directly).
  ``manager.tib_swaps`` is a read-only alias
  and the ``mutation.tib_swap`` telemetry counter mirrors it in
  instrumented runs, so all three reporters agree.

**Per-session accounting** (``repro.server``): every hook and
re-evaluation closure charges the ``vm`` *it was invoked with*, never a
captured VM.  One manager may serve many sessions sharing a code space
(:class:`repro.server.CodeSpace`); each session owns its own
``mutation_stats``, so two sessions' swap counts can never bleed into
each other.  For a solo :class:`~repro.vm.runtime.VM` the invoking vm
is the owning vm and nothing changes.
"""

from __future__ import annotations

import time
import warnings
from typing import Any

from repro.analysis.specsafety import audit_attached_plans
from repro.analysis.tv import reprove_share
from repro.bytecode.opcodes import CALL_OPS as BYTECODE_CALL_OPS
from repro.bytecode.opcodes import Op
from repro.mutation import coalesce
from repro.mutation.plan import HotState, MutableClassPlan, MutationPlan
from repro.opt.eqstate import state_reads
from repro.opt.specialize import SpecBindings
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm.imt import ConflictStub, DirectEntry, OffsetEntry
from repro.vm.tib import TIB

#: Paper §6: "Mutation occurs at opt2."
MUTATION_OPT_LEVEL = 2


class MutableClassRuntime:
    """Link-time resolution of one :class:`MutableClassPlan`."""

    def __init__(self, vm: Any, plan: MutableClassPlan) -> None:
        self.plan = plan
        self.rc = vm.classes[plan.class_name]
        unit = vm.unit
        self.instance_slots = [
            unit.lookup_field(s.declaring_class, s.field_name).slot
            for s in plan.instance_fields
        ]
        self.static_slots = [
            unit.lookup_field(s.declaring_class, s.field_name).slot
            for s in plan.static_fields
        ]
        self.hot_states = list(plan.hot_states)
        #: instance-values tuple -> special TIB (shared by states that
        #: differ only in static values).
        self.tib_by_instance: dict[tuple, TIB] = {}
        #: Current static-side values matched against hot states.
        self.current_static_values: tuple = ()

    @property
    def class_name(self) -> str:
        return self.plan.class_name

    def read_static_values(self, vm: Any) -> tuple:
        return tuple(vm.jtoc.fields[slot] for slot in self.static_slots)

    def read_instance_values(self, obj: Any) -> tuple:
        f = obj.fields
        return tuple(f[s] for s in self.instance_slots)

    def states_matching_static(self, static_values: tuple) -> list[HotState]:
        return [
            hs for hs in self.hot_states if hs.static_values == static_values
        ]

    def mutable_rms(self) -> list[Any]:
        out = []
        for key in self.plan.mutable_methods:
            rm = self.rc.own_methods.get(key)
            if rm is not None:
                out.append(rm)
        return out


class MutationManager:
    """Owns all mutation state for one VM."""

    def __init__(self, vm: Any, plan: MutationPlan) -> None:
        self.vm = vm
        self.plan = plan
        self.mcrs: dict[str, MutableClassRuntime] = {}
        self._attached = False
        #: Hook registries, keyed symbolically so cached compiled code
        #: can re-link against this VM's hooks (repro.cache).
        self._instance_hook: Any = None
        self._deferred_hook: Any = None
        self.static_hooks: dict[str, Any] = {}
        self.ctor_hooks: dict[str, Any] = {}
        #: class name -> findings that caused the specialization-safety
        #: audit to downgrade its plan (see :meth:`_audit_hooks`).
        self.downgraded_classes: dict[str, list] = {}

    @property
    def tib_swaps(self) -> int:
        """Total TIB-pointer swaps, both directions — a read-only alias
        of ``vm.mutation_stats.tib_swaps``, the single counter every
        swap path updates (see :meth:`record_swap`)."""
        return self.vm.mutation_stats.tib_swaps

    @property
    def swaps_coalesced(self) -> int:
        """Re-evaluations skipped by swap coalescing (alias of
        ``vm.mutation_stats.swaps_coalesced``)."""
        return self.vm.mutation_stats.swaps_coalesced

    @property
    def special_versions_compiled(self) -> int:
        """Specialized versions actually compiled — a read-only alias of
        ``vm.mutation_stats.specials_compiled``, unified the same way
        swap accounting is: the generate loop bumps the VMStats field,
        the ``mutation.specials_compiled`` telemetry counter mirrors it,
        and this property reports it, so all three agree (and per-session
        numbers stay correct under ``jx serve``)."""
        return self.vm.mutation_stats.specials_compiled

    @property
    def specials_shared(self) -> int:
        """``rm.specials`` entries aliasing an existing body instead of
        compiling (alias of ``vm.mutation_stats.specials_shared``)."""
        return self.vm.mutation_stats.specials_shared

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        vm = self.vm
        for name, class_plan in self.plan.classes.items():
            if name not in vm.classes:
                continue
            mcr = MutableClassRuntime(vm, class_plan)
            self.mcrs[name] = mcr
            self._create_special_tibs(mcr)
            self._mark_mutable_methods(mcr)
            self._convert_imt(mcr)
        self._install_field_hooks()
        if self.plan.config.audit_hooks:
            self._audit_hooks()
        self._install_ctor_hooks()
        self._publish_lifetime_constants()
        vm.adaptive.recompile_listeners.append(self.on_recompiled)
        # Mid-run attach (the online controller) converts IMT entries
        # and installs hooks under live inline caches; flush them so no
        # site keeps a pre-attach target.  At VM construction the
        # registry is still empty (quickening runs last).
        vm.flush_inline_caches()
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.metrics.gauge("mutation.mutable_classes").set(
                len(self.mcrs)
            )
            tel.metrics.gauge("mutation.special_tibs").set(
                vm.mutation_stats.special_tibs_created
            )

    def _create_special_tibs(self, mcr: MutableClassRuntime) -> None:
        """One special TIB per hot state; states sharing instance values
        share a TIB (the static side selects the code pointers).  Classes
        depending only on static fields need no special TIB (§3.2.2).

        With ``VMConfig.spec_share``, states equivalent modulo the
        class's state-read union additionally share one TIB: if no
        mutable method can distinguish two instance-value tuples (equal
        projections onto the union of slots any mutable method reads)
        and the two tuples match the same set of hot static values (so
        :meth:`apply_static_state` patches them identically), both map
        to a single TIB object — that is the Fig. 12 TIB-space cost
        turning sublinear in hot-state count.  The merged TIB's
        ``state`` is the first (leader) tuple; all member tuples resolve
        to it through ``tib_by_instance``, so cache pins and re-eval
        tables are unaffected.
        """
        if not mcr.instance_slots:
            return
        union = None
        if self.vm.config.spec_share:
            union = self._attach_read_union(mcr)
        static_sets: dict[tuple, frozenset] = {}
        if union is not None:
            for hs in mcr.hot_states:
                static_sets.setdefault(hs.instance_values, set()).add(  # type: ignore[attr-defined]
                    hs.static_values
                )
            static_sets = {
                iv: frozenset(s) for iv, s in static_sets.items()
            }
        merged: dict[tuple, TIB] = {}
        for hs in mcr.hot_states:
            iv = hs.instance_values
            if iv in mcr.tib_by_instance:
                continue
            tib = None
            group_key = None
            if union is not None:
                projection = tuple(
                    (slot, type(v).__name__, v)
                    for slot, v in zip(mcr.instance_slots, iv)
                    if slot in union
                )
                group_key = (projection, static_sets[iv])
                tib = merged.get(group_key)
            if tib is None:
                tib = TIB.special_from(mcr.rc.class_tib, state=iv)
                self.vm.tib_space.record_special_tib(tib)
                self.vm.mutation_stats.special_tibs_created += 1
                if group_key is not None:
                    merged[group_key] = tib
            else:
                self.vm.mutation_stats.special_tibs_shared += 1
            mcr.tib_by_instance[iv] = tib
            mcr.rc.special_tibs[iv] = tib

    def _attach_read_union(self, mcr: MutableClassRuntime):
        """Union of instance state slots any mutable method of the class
        may read, computed on raw bytecode at attach time (before any IR
        exists); ``None`` is ⊤ — unanalyzable, disabling TIB merging.

        Any call makes the set ⊤: opt2 inlining could pull a callee's
        state reads into a mutable method's body, and bytecode-level
        analysis cannot bound them.  Method bodies (``rm.info.code``)
        are never rewritten in place (quickening builds a separate
        ``quick_code``), so plain GETFIELD is the only instance read at
        this level.  The receiver is deliberately ignored — a read
        through *any* reference of a slot keeps it in the union — which
        over-approximates the per-method this-aliased read sets, so

            TIB merged  =>  every mutable method's body shared,

        and a merged TIB never needs two different code pointers in one
        vtable slot.
        """
        slots = set(mcr.instance_slots)
        unit = self.vm.unit
        union: set[int] = set()
        for rm in mcr.mutable_rms():
            for instr in rm.info.code:
                if instr.op in BYTECODE_CALL_OPS:
                    return None
                if instr.op is Op.GETFIELD:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    if finfo is None:
                        return None
                    if not finfo.is_static and finfo.slot in slots:
                        union.add(finfo.slot)
        return union

    def _mark_mutable_methods(self, mcr: MutableClassRuntime) -> None:
        for rm in mcr.mutable_rms():
            rm.is_mutable = True
            rm.num_state_fields = mcr.plan.num_state_fields  # type: ignore[attr-defined]

    def _convert_imt(self, mcr: MutableClassRuntime) -> None:
        """Mutable classes dispatch interface calls through TIB offsets so
        special TIBs are honored and one IMT serves them all (§3.2.3)."""
        rc = mcr.rc
        if rc.imt is None:
            return
        for key, slot in rc.imt_slot_of.items():
            offset = rc.vtable_layout[key]
            entry = rc.imt.slots[slot]
            if isinstance(entry, DirectEntry):
                rc.imt.slots[slot] = OffsetEntry(offset)
            elif isinstance(entry, ConflictStub):
                entry.targets[key] = OffsetEntry(offset)

    def _state_field_keys(self) -> tuple[dict[str, list], dict[str, list]]:
        """(instance field key -> interested mcrs,
        static field key -> interested mcrs)."""
        instance: dict[str, list] = {}
        static: dict[str, list] = {}
        for mcr in self.mcrs.values():
            for spec in mcr.plan.instance_fields:
                instance.setdefault(spec.key, []).append(mcr)
            for spec in mcr.plan.static_fields:
                static.setdefault(spec.key, []).append(mcr)
        return instance, static

    def instance_state_hook(self):
        """The shared PUTFIELD state hook (one per manager; it already
        dispatches on the written object's exact class)."""
        if self._instance_hook is None:
            hook = self._make_instance_hook()
            hook.cache_ref = ("instance_hook",)  # type: ignore[attr-defined]
            self._instance_hook = hook
        return self._instance_hook

    def deferred_state_hook(self):
        """The shared hook for coalesced (all-but-last) state writes of
        an update region: counts the avoided re-evaluation and returns.
        The region's final write re-evaluates from the then-current
        field values, so deferral loses nothing."""
        if self._deferred_hook is None:
            hook = self._make_deferred_hook()
            hook.cache_ref = ("deferred_hook",)  # type: ignore[attr-defined]
            self._deferred_hook = hook
        return self._deferred_hook

    def _make_deferred_hook(self):
        tel = self.vm.telemetry

        if tel is None:

            def deferred(vm: Any, obj: Any) -> None:
                vm.mutation_stats.swaps_coalesced += 1

            # opt2 inlines the count so the deferred write costs no call.
            deferred.inline_spec = ("deferred",)  # type: ignore[attr-defined]
            return deferred

        def deferred_tel(vm: Any, obj: Any) -> None:
            vm.mutation_stats.swaps_coalesced += 1
            if tel.enabled:
                tel.count("mutation.swaps_coalesced")
                tel.emit(
                    "swap_coalesced",
                    cls=obj.tib.type_info.name if obj is not None else None,
                )

        return deferred_tel

    def _install_field_hooks(self) -> None:
        instance_keys, static_keys = self._state_field_keys()
        unit = self.vm.unit
        coalesce_on = self.plan.config.coalesce_swaps
        for method in unit.all_methods():
            if method.is_abstract:
                continue
            hooked_putfields = False
            for instr in method.code:
                if instr.op is Op.PUTFIELD:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    if finfo is None:
                        self._warn_unresolved(method, cls_name, field_name)
                        continue
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    if key in instance_keys:
                        instr.state_hook = self.instance_state_hook()
                        hooked_putfields = True
                elif instr.op is Op.PUTSTATIC:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    if finfo is None:
                        self._warn_unresolved(method, cls_name, field_name)
                        continue
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    mcrs = static_keys.get(key)
                    if mcrs:
                        hook = self.static_hooks.get(key)
                        if hook is None:
                            hook = self._make_static_hook(mcrs)
                            hook.cache_ref = (  # type: ignore[attr-defined]
                                "static_hook", key
                            )
                            self.static_hooks[key] = hook
                        instr.state_hook = hook
            if hooked_putfields and coalesce_on:
                self._coalesce_method(method)

    @staticmethod
    def _warn_unresolved(method: Any, cls_name: str, field_name: str) -> None:
        """An unresolvable field write cannot be a state-field write
        (the plan only names resolvable fields), so skipping the hook is
        safe — but it points at a stale plan or program, so say so."""
        warnings.warn(
            f"mutation: cannot resolve field {cls_name}.{field_name} "
            f"written by {method.key}; no state hook installed",
            RuntimeWarning,
            stacklevel=3,
        )

    def _coalesce_method(self, method: Any) -> None:
        """Replace the re-evaluating hook with the deferred hook on every
        all-but-last write of a provably-safe update region."""
        deferred = None
        for index in coalesce.deferrable_writes(method, self._instance_hook):
            if deferred is None:
                deferred = self.deferred_state_hook()
            method.code[index].state_hook = deferred

    def _audit_hooks(self) -> None:
        """Specialization-safety audit (paper-soundness backstop): after
        hook installation, re-prove on the instruction CFG that every
        reachable state-field write of every attached plan carries its
        hook and that every coalesce-deferred hook's barrier-free region
        holds (:func:`repro.analysis.specsafety.audit_attached_plans`).

        The installer establishes this by construction, so a finding
        means an installer/coalescer regression or a hand-patched
        program; either way running specialized code behind an unproven
        hook set is unsound, so the violating class is **downgraded**
        instead: its special TIBs are detached and its objects keep the
        class TIB (correct, merely unspecialized)."""
        for name, findings in sorted(audit_attached_plans(self).items()):
            self._downgrade_class(name, findings)

    def _downgrade_class(self, name: str, findings: list) -> None:
        mcr = self.mcrs.pop(name, None)
        if mcr is None:
            return
        self.downgraded_classes[name] = list(findings)
        rc = mcr.rc
        rc.special_tibs.clear()
        mcr.tib_by_instance.clear()
        for rm in mcr.mutable_rms():
            rm.is_mutable = False
        # Installed hooks stay on the bytecode (harmless: the shared
        # hooks consult the registries below, which no longer know the
        # class), but the swap machinery is detached.
        hook = self._instance_hook
        if hook is not None:
            hook.reeval_by_class.pop(name, None)
        for static_hook in self.static_hooks.values():
            static_hook.mcrs[:] = [
                m for m in static_hook.mcrs if m is not mcr
            ]
        self.vm.mutation_stats.plans_downgraded += 1
        tel = _tel_maybe(self.vm.telemetry)
        if tel is not None:
            tel.count("analysis.plan_downgraded")
            tel.emit(
                "plan_downgraded",
                cls=name,
                findings=[f.format() for f in findings],
            )

    def _install_ctor_hooks(self) -> None:
        """Fig. 4, first clause: at the end of the constructors of a
        mutable class whose state depends on any instance field.  The
        exact-class check matters: a subclass construction runs this
        constructor via super(), but only exact instances mutate."""
        tel = self.vm.telemetry
        for mcr in self.mcrs.values():
            if not mcr.instance_slots:
                continue
            reeval = self._make_reeval(mcr)
            rc = mcr.rc

            if tel is None:

                def ctor_hook(vm: Any, obj: Any, _rc=rc,
                              _reeval=reeval) -> None:
                    if obj.tib.type_info is _rc:
                        _reeval(vm, obj)

            else:

                def ctor_hook(vm: Any, obj: Any, _rc=rc,
                              _reeval=reeval, _tel=tel) -> None:
                    if obj.tib.type_info is _rc:
                        if _tel.enabled:
                            _tel.count("mutation.hooks_fired")
                            _tel.emit(
                                "hook_fired", kind="ctor_exit",
                                cls=_rc.name,
                            )
                        _reeval(vm, obj)

            spec = getattr(reeval, "inline_spec", None)
            if spec is not None:
                ctor_hook.inline_spec = spec  # type: ignore[attr-defined]
            ctor_hook.cache_ref = (  # type: ignore[attr-defined]
                "ctor_hook", rc.name
            )
            self.ctor_hooks[rc.name] = ctor_hook
            for rm in mcr.rc.own_methods.values():
                if rm.info.is_constructor:
                    rm.ctor_exit_hook = ctor_hook

    def _publish_lifetime_constants(self) -> None:
        unit = self.vm.unit
        published = {}
        for key, info in self.plan.lifetime_constants.items():
            target = info.target_class
            info.field_values = {}
            for fname, value in info.field_values_by_name.items():
                finfo = unit.lookup_field(target, fname)
                if finfo is not None and not finfo.is_static:
                    info.field_values[finfo.slot] = value
            if info.field_values:
                published[key] = info
        self.vm.lifetime_constants = published

    # ------------------------------------------------------------------
    # Fig. 4: actions at state-field assignments
    # ------------------------------------------------------------------

    def _make_instance_hook(self):
        """The generic state-field-write hook (Fig. 4, second clause).

        Dispatches on the object's exact class; single-state-field
        classes (the common case) take a tuple-free fast path — this
        hook runs on every mutable-object allocation, so its cost is the
        mutation technique's main runtime tax.
        """
        reeval_by_class: dict[str, Any] = {}
        for name, mcr in self.mcrs.items():
            if mcr.instance_slots:
                reeval_by_class[name] = self._make_reeval(mcr)
        tel = self.vm.telemetry

        if tel is None:

            def hook(vm: Any, obj: Any) -> None:
                if obj is None:
                    return
                reeval = reeval_by_class.get(obj.tib.type_info.name)
                if reeval is not None:
                    reeval(vm, obj)

            # Exposed (same dict the closure reads) so a plan downgrade
            # can detach one class without rebuilding the hook.
            hook.reeval_by_class = reeval_by_class  # type: ignore[attr-defined]
            return hook

        def hook_tel(vm: Any, obj: Any) -> None:
            if obj is None:
                return
            cls_name = obj.tib.type_info.name
            if tel.enabled:
                tel.count("mutation.hooks_fired")
                tel.emit("hook_fired", kind="putfield", cls=cls_name)
            reeval = reeval_by_class.get(cls_name)
            if reeval is not None:
                reeval(vm, obj)

        hook_tel.reeval_by_class = reeval_by_class  # type: ignore[attr-defined]
        return hook_tel

    def _make_reeval(self, mcr: MutableClassRuntime):
        """Class-specialized TIB re-evaluation closure ``f(vm, obj)``.

        Exactly one of three closures per class:

        * ``reeval1`` — uninstrumented, one state field: dispatches on
          the raw field value (no tuple allocation on the
          per-object-birth path) and carries the ``"single"``
          ``inline_spec`` so opt2 code inlines it;
        * ``reeval`` — uninstrumented, several state fields;
        * ``reeval_recorded`` — telemetry attached: every swap funnels
          through :meth:`record_swap`.  Deliberately no ``inline_spec``:
          opt2 code must call it so swaps stay observable.

        Every closure charges the ``vm`` it is invoked with, so sessions
        sharing this manager's code space each keep their own counts.
        """
        class_tib = mcr.rc.class_tib
        table = mcr.tib_by_instance
        if self.vm.telemetry is not None:
            record = self.record_swap
            cls_name = mcr.class_name
            read = mcr.read_instance_values

            def reeval_recorded(vm: Any, obj: Any) -> None:
                start = time.perf_counter()
                tib = table.get(read(obj), class_tib)
                if obj.tib is not tib:
                    obj.tib = tib
                    record(tib is not class_tib, cls_name, start, vm)

            return reeval_recorded
        if len(mcr.instance_slots) == 1:
            slot = mcr.instance_slots[0]
            table1 = {key[0]: tib for key, tib in table.items()}

            def reeval1(vm: Any, obj: Any) -> None:
                tib = table1.get(obj.fields[slot], class_tib)
                if obj.tib is not tib:
                    obj.tib = tib
                    vm.mutation_stats.tib_swaps += 1

            reeval1.inline_spec = (  # type: ignore[attr-defined]
                "single", mcr.rc, slot, table1, class_tib
            )
            return reeval1
        slots = tuple(mcr.instance_slots)

        def reeval(vm: Any, obj: Any) -> None:
            fields = obj.fields
            tib = table.get(tuple(fields[s] for s in slots), class_tib)
            if obj.tib is not tib:
                obj.tib = tib
                vm.mutation_stats.tib_swaps += 1

        return reeval

    def record_swap(self, to_special: bool, cls_name: str,
                    start: float | None = None,
                    vm: Any = None) -> None:
        """The single accounting point for a TIB-pointer swap.

        Bumps ``vm.mutation_stats.tib_swaps`` of the *invoking* vm —
        the session that performed the swap, defaulting to the owning
        vm for solo runs (``manager.tib_swaps`` aliases the owning
        vm's count) — and, in instrumented runs, the
        ``mutation.tib_swap`` counter for *every* swap plus
        ``mutation.deopt_to_class_tib`` for the swap-back subset, with
        the matching directional event.  Its one caller is the recorded
        re-evaluation closure; the uninstrumented closures and the opt2
        inline fast path bump the same VMStats field directly — they
        exist only when telemetry is off, so the counter and the
        telemetry mirror cannot diverge.
        """
        if vm is None:
            vm = self.vm
        vm.mutation_stats.tib_swaps += 1
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            name = "tib_swap" if to_special else "deopt_to_class_tib"
            tel.emit(name, cls=cls_name)
            tel.count("mutation.tib_swap")
            elapsed = time.perf_counter() - tel.bus.epoch
            if elapsed > 0:
                tel.metrics.gauge("mutation.swap_rate").set(
                    vm.mutation_stats.tib_swaps / elapsed
                )
            if not to_special:
                tel.count("mutation.deopt_to_class_tib")
            if start is not None:
                tel.observe(
                    "mutation.swap_seconds", time.perf_counter() - start
                )

    def _make_static_hook(self, mcrs: list[MutableClassRuntime]):
        tel = self.vm.telemetry

        def hook(vm: Any, _obj: Any) -> None:
            if tel is not None and tel.enabled:
                tel.count("mutation.hooks_fired")
                tel.emit(
                    "hook_fired", kind="putstatic",
                    classes=[m.class_name for m in mcrs],
                )
            for mcr in mcrs:
                self.apply_static_state(mcr, vm)

        # Exposed (same list the closure iterates) so a plan downgrade
        # can detach one class without rebuilding the hook.
        hook.mcrs = mcrs  # type: ignore[attr-defined]
        return hook

    def apply_static_state(self, mcr: MutableClassRuntime,
                           vm: Any = None) -> None:
        """Fig. 4, third clause (also reused by Fig. 5): repoint compiled
        code according to the current static state-field values.

        Static-state mutation patches *shared* dispatch structures
        (special-TIB entries, class TIBs, JTOC cells), which is exactly
        why classes depending on static state fields are excluded from
        multi-session code spaces (:mod:`repro.server.shareable`); the
        ``vm`` parameter only selects whose JTOC supplies the values.

        Every branch falls back to ``rm.general`` when no special
        matches.  ``rm.general`` is the invariant fallback: the
        installer keeps it pointing at the one valid general compiled
        method, whereas ``rm.compiled`` is *repointed at a special* by
        the static-only private-method branch below — falling back to
        it (as the first two branches once did) risks resurrecting a
        stale special after the class leaves all hot states.  The
        guard at the top makes the two equivalent today (specials imply
        an opt2 recompile, which set both to the same object), so this
        is unification against the latent trap, not a behavior change.
        """
        if vm is None:
            vm = self.vm
        static_values = mcr.read_static_values(vm)
        mcr.current_static_values = static_values
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.count("mutation.state_reevals")
            tel.emit(
                "state_reeval",
                cls=mcr.class_name,
                static_values=list(static_values),
            )
        for rm in mcr.mutable_rms():
            if not rm.specials:
                continue
            info = rm.info
            if info.is_static:
                # Static methods: JTOC patching; they can only depend on
                # static fields, so the state key has empty instance part.
                special = rm.specials.get(((), static_values))
                rm.jtoc_cell.compiled = (
                    special if special is not None else rm.general
                )
            elif mcr.instance_slots:
                # Instance+static classes: patch each special TIB.
                # Private instance methods have no TIB slot and cannot be
                # mutated here (paper §3.2.3); the plan builder filters
                # them, and this guard protects hand-written plans.
                if rm.vtable_offset < 0:
                    continue
                for inst_values, tib in mcr.tib_by_instance.items():
                    special = rm.specials.get((inst_values, static_values))
                    tib.entries[rm.vtable_offset] = (
                        special if special is not None else rm.general
                    )
            else:
                # Static-only classes: patch the class TIB itself; all
                # instances share the mutation state (§3.2.2).  Private
                # instance methods swap the invokespecial pointer
                # (§3.2.3: the class TIB itself can be specialized).
                special = rm.specials.get(((), static_values))
                active = special if special is not None else rm.general
                if rm.vtable_offset >= 0:
                    mcr.rc.class_tib.entries[rm.vtable_offset] = active
                else:
                    rm.compiled = active
        # Entries were repointed under unchanged TIB identities — the
        # one case the paper's swap-as-invalidation trick cannot cover —
        # so inline caches must forget their targets explicitly.
        vm.flush_inline_caches()

    # ------------------------------------------------------------------
    # Fig. 5: actions at opt2 recompilation of mutable methods
    # ------------------------------------------------------------------

    def on_recompiled(self, rm: Any, opt_level: int) -> None:
        if opt_level < MUTATION_OPT_LEVEL or not rm.is_mutable:
            return
        mcr = self.mcrs.get(rm.info.declaring_class)
        if mcr is None:
            return
        self.generate_specials(mcr, rm)
        self.apply_static_state(mcr)

    def generate_specials(self, mcr: MutableClassRuntime, rm: Any) -> None:
        """Compile one specialized version per hot state (Fig. 5: "all
        special compiled code ... of this method are generated").

        Two equivalence-modulo-state refinements cut Fig. 10's linear
        special-code growth (:mod:`repro.opt.eqstate`):

        * a hot state binding **none** of the slots this method's body
          reads needs no special at all — ``specialize_ir`` would
          replace zero loads — so its key aliases the fresh general
          body (always; this is a bugfix, not gated);
        * with ``VMConfig.spec_share``, hot states whose projections
          onto the method's read set are equal share **one** compiled
          body under N keys.  Bodies that embed OSR deopt guards are
          TIB-identity-dependent, so their share key includes the pinned
          special TIB — states merged onto one TIB still share, states
          on different TIBs do not.

        Aliased keys bump ``specials_shared`` and contribute nothing to
        ``compile.special_code_bytes``; only fresh compiles bump
        ``specials_compiled`` and the compile-stats bytes.
        """
        vm = self.vm
        info = rm.info
        if (
            not info.is_static
            and rm.vtable_offset < 0
            and mcr.instance_slots
        ):
            return  # unreachable through any special TIB (paper §3.2.3)
        reads = state_reads(
            vm.opt_compiler.spec_ir(rm),
            mcr.instance_slots,
            mcr.static_slots,
        )
        share = vm.config.spec_share
        osr_on = vm.config.osr
        tv_on = vm.config.tv
        general = rm.general
        can_alias_general = (
            general is not None
            and general.opt_level == MUTATION_OPT_LEVEL
        )
        shared_bodies: dict[tuple, Any] = {}
        # The bindings each shared body was compiled against, so the
        # validator can re-prove projection equality before any later
        # state aliases it (repro.analysis.tv.reprove_share).
        shared_srcs: dict[tuple, SpecBindings] = {}
        for hs in mcr.hot_states:
            bindings = SpecBindings(label=hs.describe(mcr.plan))
            if not rm.info.is_static:
                bindings.instance = dict(
                    zip(mcr.instance_slots, hs.instance_values)
                )
                # The special TIB this version speculates on; the OSR
                # pass guards mid-frame state writes against it so a
                # running frame that swaps its own receiver deopts
                # instead of finishing on a stale state.
                bindings.tib = mcr.tib_by_instance.get(hs.instance_values)
            bindings.static = dict(
                zip(mcr.static_slots, hs.static_values)
            )
            if rm.info.is_static and not bindings.static:
                continue  # nothing to specialize a static method on
            key = (
                ((), hs.static_values)
                if rm.info.is_static
                else hs.key
            )
            if key in rm.specials:
                continue
            # A guarded body pins the TIB it speculates on, so it can
            # only be shared by states resolving to that same TIB (and
            # never replaced by the unguarded general body).
            guarded = (
                osr_on
                and bindings.tib is not None
                and reads.tib_dependent
            )
            projection = reads.project(bindings.instance, bindings.static)
            alias_general = (
                not guarded
                and can_alias_general
                and projection == ((), ())
            )
            if alias_general and tv_on and not reprove_share(
                vm, rm, reads, None, bindings
            ):
                alias_general = False  # unprovable: compile fresh
            if alias_general:
                # Zero-replacement case: the body reads none of the
                # bound slots, so the "special" would be byte-identical
                # to the general code just compiled.  Alias it.
                rm.specials[key] = general
                self._record_special_shared(rm, bindings, general)
                continue
            if share:
                share_key = (
                    projection,
                    id(bindings.tib) if guarded else None,
                )
                existing = shared_bodies.get(share_key)
                if existing is not None and (
                    not tv_on
                    or reprove_share(
                        vm, rm, reads, shared_srcs[share_key], bindings
                    )
                ):
                    rm.specials[key] = existing
                    self._record_special_shared(rm, bindings, existing)
                    continue
            tel = _tel_maybe(vm.telemetry)
            if tel is not None:
                tel.emit(
                    "compile_begin",
                    method=rm.info.qualified_name,
                    opt_level=MUTATION_OPT_LEVEL,
                    special=True,
                    state=bindings.label,
                )
            start = time.perf_counter()
            special = vm.opt_compiler.compile(
                rm, MUTATION_OPT_LEVEL, bindings=bindings
            )
            seconds = time.perf_counter() - start
            rm.specials[key] = special
            if share:
                shared_bodies[share_key] = special
                shared_srcs[share_key] = bindings
            vm.mutation_stats.specials_compiled += 1
            vm.compile_stats.record_special(
                seconds, special.code_size_bytes
            )
            if tel is not None:
                tel.emit(
                    "compile_end",
                    dur=seconds,
                    method=rm.info.qualified_name,
                    opt_level=MUTATION_OPT_LEVEL,
                    special=True,
                    state=bindings.label,
                    code_size_bytes=special.code_size_bytes,
                )
                tel.emit(
                    "special_install",
                    method=rm.info.qualified_name,
                    state=bindings.label,
                    code_size_bytes=special.code_size_bytes,
                )
                tel.count("mutation.specials_compiled")
                tel.count(
                    "compile.special_code_bytes",
                    special.code_size_bytes,
                )
                tel.observe("compile.seconds.special", seconds)
                tel.metrics.gauge("vm.compile_seconds").set(
                    vm.compile_stats.total_seconds
                )

    def _record_special_shared(self, rm: Any, bindings: SpecBindings,
                               target: Any) -> None:
        """Account one ``rm.specials`` key aliasing an existing body:
        no compile, no code bytes — just the share counter and, when
        instrumented, the ``special_shared`` event."""
        vm = self.vm
        vm.mutation_stats.specials_shared += 1
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.count("mutation.specials_shared")
            tel.emit(
                "special_shared",
                method=rm.info.qualified_name,
                state=bindings.label,
                target=(
                    "general" if target is rm.general
                    else getattr(target, "specialized_state", None)
                ),
            )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        lines = []
        for name in sorted(self.mcrs):
            mcr = self.mcrs[name]
            lines.append(
                f"{name}: {len(mcr.tib_by_instance)} special TIBs, "
                f"static match {mcr.current_static_values!r}"
            )
            for rm in mcr.mutable_rms():
                lines.append(
                    f"  {rm.info.qualified_name}: "
                    f"{len(rm.specials)} special versions"
                )
        lines.append(
            f"tib swaps: {self.tib_swaps} "
            f"({self.swaps_coalesced} coalesced), "
            f"special versions: {self.special_versions_compiled} "
            f"({self.specials_shared} shared)"
        )
        return "\n".join(lines)
