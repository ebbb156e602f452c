"""The optimizing compiler driver.

Paper §3.2.1 runs the Jikes opt compiler at levels opt0–opt2.  JxVM's
opt0 is the interpreter and its one optimizing tier is **opt2**: lower,
inline (with specialization inlining), then simplify, CSE, constant
propagation, CFG cleanup and DCE to a fixpoint, strength reduction,
bounds-check elimination, and the fixpoint again; emitted as Python
code.  There is no opt1: an IR-interpreter middle tier ran slower than
the quickened opt0 interpreter it was meant to improve on.

Specialized versions (``compile(..., bindings=...)``) run the
specialization pass right after lowering/inlining so the bound state
fields feed the whole downstream pipeline — this is how "the mutable
functions can be compiled with grade specialized to 0, 1, 2, or 3"
(paper §2.2) happens here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.core import maybe as _tel_maybe

from repro.cache.artifact import link_opt2, opt2_artifact
from repro.opt.boundselim import eliminate_bounds_checks
from repro.opt.branchfold import cleanup_cfg
from repro.opt.constprop import constant_propagation
from repro.opt.cse import local_cse
from repro.opt.dce import dead_code_elimination
from repro.opt.inline import InlineConfig, inline_calls
from repro.opt.ir import clone_ir
from repro.opt.lowering import lower_method, lower_method_osr
from repro.opt.pycodegen import PyCodegen
from repro.opt.simplify import simplify
from repro.opt.specialize import SpecBindings, specialize_ir
from repro.opt.strength import strength_reduce
from repro.vm.compiled import OptCompiled


@dataclass
class OptConfig:
    """Optimizing-compiler tunables."""

    inline: InlineConfig = field(default_factory=InlineConfig)
    #: Maximum simplify/constprop/cleanup/DCE fixpoint iterations.
    max_iterations: int = 5


class OptCompiler:
    """Compiles RuntimeMethods at opt2 for one VM."""

    def __init__(self, vm: Any, config: OptConfig | None = None) -> None:
        self.vm = vm
        self.config = config or OptConfig()
        #: id(RuntimeMethod) -> post-inline opt2 IR snapshot.
        self._ir_snapshots: dict[int, Any] = {}

    # ------------------------------------------------------------------

    def _pass(self, name: str, pass_fn, fn) -> int:
        """Run one optimizer pass, timing it when telemetry is active."""
        tel = _tel_maybe(self.vm.telemetry)
        if tel is None:
            return pass_fn(fn)
        start = time.perf_counter()
        result = pass_fn(fn)
        seconds = time.perf_counter() - start
        tel.emit(
            "opt_pass", dur=seconds, opt_pass=name,
            changed=result if isinstance(result, (int, bool)) else None,
        )
        tel.observe(f"opt.pass_seconds.{name}", seconds)
        return result

    def _run_core_pipeline(self, fn) -> None:
        run = self._pass
        for _ in range(self.config.max_iterations):
            changed = run("simplify", simplify, fn)
            changed += run("cse", local_cse, fn)
            changed += run("constprop", constant_propagation, fn)
            changed += run("cleanup_cfg", cleanup_cfg, fn)
            changed += run("dce", dead_code_elimination, fn)
            if not changed:
                break

    def _run_late_pipeline(self, fn) -> None:
        """Strength reduction and bounds-check elimination, then the
        core fixpoint again over what they exposed."""
        self._pass("strength", strength_reduce, fn)
        self._pass("boundselim", eliminate_bounds_checks, fn)
        self._run_core_pipeline(fn)

    def _lower_and_inline(self, rm: Any):
        fn = self._pass("lower", lambda _f: lower_method(rm.info), None)
        self._pass(
            "inline",
            lambda f: inline_calls(f, self.vm, rm, self.config.inline),
            fn,
        )
        return fn

    def spec_ir(self, rm: Any):
        """The post-inline opt2 IR specialization starts from, for
        analyses (:mod:`repro.opt.eqstate`) that must see exactly what
        ``specialize_ir`` will rewrite.

        Returns the general compile's snapshot when one exists; a
        cache-warm general compile links an artifact without ever
        lowering, so this builds (and snapshots) the IR on demand.
        Callers must treat the result as read-only — ``build_ir`` clones
        the snapshot before mutating it.
        """
        fn = self._ir_snapshots.get(id(rm))
        if fn is None:
            fn = self._ir_snapshots[id(rm)] = self._lower_and_inline(rm)
        return fn

    def build_ir(self, rm: Any, bindings: SpecBindings | None = None):
        """Produce optimized opt2 IR for ``rm``.

        The post-inline IR of a *general* compile is snapshotted on the
        RuntimeMethod; specialized versions clone that snapshot instead
        of re-lowering and re-inlining (Fig. 5 generates the general and
        all special versions together, so the snapshot is always fresh
        when the manager asks for specials).
        """
        snapshot = self._ir_snapshots.get(id(rm)) if bindings else None
        if snapshot is not None:
            fn = clone_ir(snapshot)
        else:
            fn = self._lower_and_inline(rm)
            self._ir_snapshots[id(rm)] = clone_ir(fn)
        if bindings:
            self._pass(
                "specialize", lambda f: specialize_ir(f, bindings), fn
            )
            if bindings.tib is not None and self.vm.config.osr:
                # Arm mid-frame deopt: after every TIB-re-evaluating
                # state write on `this`, guard that the receiver still
                # has the specialized-for TIB and bail to the
                # interpreter otherwise (OSR's reverse direction).
                from repro.vm.osr import insert_deopt_points

                self._pass(
                    "deoptpoints",
                    lambda f: insert_deopt_points(f, rm, bindings.tib),
                    fn,
                )
        self._run_core_pipeline(fn)
        self._run_late_pipeline(fn)
        return fn

    def compile_osr_continuation(self, rm: Any, pc: int):
        """Compile an OSR continuation of ``rm`` entered at bytecode
        ``pc`` and return ``(executor, code_size_bytes)``.

        The executor's signature matches the normal one —
        ``executor(vm, args)`` — but ``args`` is the *full captured
        locals frame* (``max_locals`` values), not the parameter list.
        Continuations are per-frame-shape artifacts keyed by runtime
        state, so they are never cached or snapshotted; the entry-point
        cache lives on the RuntimeMethod (``rm.osr_entries``)."""
        fn = lower_method_osr(rm.info, pc)
        self._pass(
            "inline",
            lambda f: inline_calls(f, self.vm, rm, self.config.inline),
            fn,
        )
        self._run_core_pipeline(fn)
        self._run_late_pipeline(fn)
        source, executor = PyCodegen(fn, func_name="_jx_osr").generate()
        return executor, len(source)

    def compile(
        self,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None = None,
    ) -> OptCompiled:
        """Compile one version of ``rm`` (general, or specialized when
        ``bindings`` are given) and return the compiled method.  The
        caller installs it.

        With a compile cache attached to the VM, a prior compile of the
        same (program, method, tier, bindings, config, environment) is
        re-linked instead of recompiled; misses populate the cache."""
        if opt_level != 2:
            raise ValueError(f"opt_level must be 2, got {opt_level}")
        cache = getattr(self.vm, "compile_cache", None)
        key = None
        if cache is not None:
            key = cache.key_for(self.vm, rm, opt_level, bindings,
                                self.config)
            # The whole load→compile→store sequence runs under the
            # key's lock: a concurrent compiler of the same key waits
            # here and then hits what the first one stored, instead of
            # recompiling (and the load can never race a store).
            with cache.key_lock(key) as waited:
                if waited:
                    tel = _tel_maybe(self.vm.telemetry)
                    if tel is not None:
                        tel.observe("cache.lock_wait_seconds", waited)
                return self._compile_exclusive(cache, key, rm, bindings)
        return self._compile_exclusive(cache, key, rm, bindings)

    def _compile_exclusive(
        self,
        cache: Any,
        key: str | None,
        rm: Any,
        bindings: SpecBindings | None,
    ) -> OptCompiled:
        """The compile body; the caller holds ``key``'s lock when a
        cache is attached."""
        if cache is not None:
            cm = self._link_cached(cache, key, rm, bindings)
            if cm is not None:
                return cm
        fn = self.build_ir(rm, bindings)
        state_label = bindings.label if bindings else None
        gen = PyCodegen(fn)
        source, executor = gen.generate()
        cm = OptCompiled(
            rm,
            executor,
            opt_level=2,
            specialized_state=state_label,
            code_size_bytes=len(source),
            ir=fn,
            source_text=source,
        )
        artifact = None
        if cache is not None:
            if gen.uncacheable:
                cache.uncacheable += 1
            else:
                artifact = opt2_artifact(
                    gen.func_name, source, gen.pin_refs, gen.code
                )
        if artifact is not None:
            cache.store(key, artifact, meta={
                "cls": rm.rclass.name,
                "method": rm.info.key,
                "opt_level": 2,
                "special": state_label,
            })
        # Under active telemetry, keep dispatch going through the
        # counting invoke() even for final-tier methods (the direct
        # executor binding would make their calls invisible).
        if _tel_maybe(self.vm.telemetry) is not None:
            cm.__dict__.pop("invoke", None)
        return cm

    def _link_cached(
        self,
        cache: Any,
        key: str,
        rm: Any,
        bindings: SpecBindings | None,
    ) -> OptCompiled | None:
        """Try to build an OptCompiled from a cache entry.  Any failure
        (absent, corrupt, or unlinkable entry) is a miss and the caller
        compiles normally — correctness never depends on the cache."""
        tel = _tel_maybe(self.vm.telemetry)
        start = time.perf_counter()
        artifact = cache.load(key)
        cm = None
        if artifact is not None:
            state_label = bindings.label if bindings else None
            try:
                if artifact.get("kind") == "opt2":
                    source, executor = link_opt2(self.vm, artifact)
                    cm = OptCompiled(
                        rm,
                        executor,
                        opt_level=2,
                        specialized_state=state_label,
                        code_size_bytes=len(source),
                        ir=None,
                        source_text=source,
                    )
            except Exception:
                # Mis-linked or corrupt entry: count it and recompile.
                cache.link_errors += 1
                cm = None
        if cm is None:
            cache.misses += 1
            if tel is not None:
                tel.count("cache.miss")
            return None
        cm.from_cache = True
        cache.hits += 1
        if tel is not None:
            tel.count("cache.hit")
            tel.observe(
                "cache.load_seconds", time.perf_counter() - start
            )
            cm.__dict__.pop("invoke", None)
        return cm
