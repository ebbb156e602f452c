"""The adaptive optimization system.

JxVM's analog of Jikes RVM's AOS (paper §3.2.1): methods start at opt0
(the quickened bytecode interpreter), accumulate *ticks* (16 per entry,
1 per loop backedge), and are synchronously recompiled at opt2 when
their ticks cross ``AdaptiveConfig.promote_ticks``.  That is the only
promotion: the paper's middle tier (opt1) ran slower than opt0 on this
substrate, so it was removed (see DESIGN.md, decision 21).

Two paper-relevant behaviors:

* **Mutation happens at opt2** — when the recompiled method is mutable,
  the mutation manager's Fig. 5 actions run right after installation
  (the manager is registered as a recompilation listener).
* **Accelerated hotness detection** (paper Fig. 14) — methods named in
  ``AdaptiveConfig.accelerated`` are promoted to opt2 on their first
  invocation, modeling "opt1 and opt2 compiled code ... generated
  immediately after their opt0 compiled code".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from repro.telemetry.core import maybe as _tel_maybe
from repro.telemetry.metrics import COUNT_BUCKETS

#: Sentinel threshold meaning "never promote again".
NEVER = 1 << 60

#: Ticks credited per method entry; backedges credit 1 each.  This is
#: the single definition — the baseline dispatch (`repro.vm.compiled`)
#: and the quickened interpreter's inline-cache fast paths
#: (`repro.vm.interpreter`) both import it from here (it used to be
#: duplicated and only pinned equal by a test).
ENTRY_TICKS = 16

#: The one optimizing tier methods are promoted to.
OPT_LEVEL = 2

#: Recorded ``tier_promote`` telemetry of one full jbb2000 run: the
#: promotion-tick default below is *derived* from this trace instead of
#: hand-picked, so the threshold stays anchored to measured hotness
#: (regenerate by re-recording the trace after retuning the workload).
_TIER_TRACE = Path(__file__).with_name("tier_trace_jbb2000.json")
_HAND_PICKED_TICKS = 512


def _pow2_floor(n: int) -> int:
    return 1 << (max(n, 1).bit_length() - 1)


@lru_cache(maxsize=None)
def _traced_ticks() -> int:
    """Promotion threshold seeded from the recorded jbb2000 trace: the
    power-of-two floor of the smallest tick count any non-accelerated
    method left opt0 at (promotions fire when ticks cross the threshold,
    so the floor recovers it), clamped to the hand-picked value so trace
    noise can only lower the threshold, never raise it past the tuned
    default.  Falls back to the hand-picked value when the trace is
    missing or has no such promotions."""
    try:
        with open(_TIER_TRACE, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError):
        return _HAND_PICKED_TICKS
    ticks = [
        p["ticks"]
        for p in trace.get("promotions", ())
        if p.get("from_level") == 0 and not p.get("accelerated")
    ]
    if not ticks:
        return _HAND_PICKED_TICKS
    return max(min(_pow2_floor(min(ticks)), _HAND_PICKED_TICKS), ENTRY_TICKS)


@dataclass
class AdaptiveConfig:
    """Tunables for the adaptive system."""

    #: Ticks one method entry is worth, as a class-level constant (not a
    #: per-instance field: every sampling site reads it as a plain
    #: global for speed, so it is program-wide by construction).
    ENTRY_TICKS = ENTRY_TICKS

    enabled: bool = True
    #: Ticks before promotion opt0 -> opt2 (16 ticks per invocation);
    #: default derived from the recorded jbb2000 tier trace.
    promote_ticks: int = field(default_factory=_traced_ticks)
    #: Qualified method names promoted to opt2 on their first call.
    accelerated: frozenset[str] = frozenset()


@dataclass
class CompileEvent:
    """One recompilation, for the Fig. 10/11 accounting."""

    qualified_name: str
    opt_level: int
    seconds: float
    code_size_bytes: int
    num_versions: int  # 1 general + specials generated alongside


@dataclass
class CompileStats:
    """Aggregate optimizing-compiler metrics for one VM."""

    events: list[CompileEvent] = field(default_factory=list)
    total_seconds: float = 0.0
    total_code_bytes: int = 0
    special_code_bytes: int = 0
    special_seconds: float = 0.0
    #: Recompiles served by re-linking a persistent-cache artifact
    #: (their seconds still count toward the totals — link time is the
    #: real cost a warm start pays).
    cached_methods: int = 0

    def record(self, event: CompileEvent) -> None:
        self.events.append(event)
        self.total_seconds += event.seconds
        self.total_code_bytes += event.code_size_bytes

    def record_special(self, seconds: float, code_bytes: int) -> None:
        self.total_seconds += seconds
        self.special_seconds += seconds
        self.total_code_bytes += code_bytes
        self.special_code_bytes += code_bytes


class AdaptiveSystem:
    """Sampling-driven synchronous recompilation controller."""

    def __init__(self, vm: Any, config: AdaptiveConfig) -> None:
        self.vm = vm
        self.config = config
        #: Listeners called as fn(rm, opt_level) after each recompilation;
        #: the mutation manager registers its Fig. 5 actions here.
        self.recompile_listeners: list[Callable[[Any, int], None]] = []
        self._compiling = False

    # ------------------------------------------------------------------

    def prime(self, rm: Any) -> None:
        """Set a method's initial promotion threshold."""
        cfg = self.config
        if not cfg.enabled:
            rm.samples.threshold = NEVER
        elif rm.info.qualified_name in cfg.accelerated:
            rm.samples.threshold = 1
        else:
            rm.samples.threshold = cfg.promote_ticks

    def prime_all(self) -> None:
        for rc in self.vm.classes.values():
            for rm in rc.own_methods.values():
                if not rm.info.is_abstract:
                    self.prime(rm)

    # ------------------------------------------------------------------

    def on_hot(self, rm: Any) -> None:
        """Promotion check, called when a method's ticks cross its
        threshold.  Synchronously recompiles and installs."""
        cfg = self.config
        # One rung: retire the threshold *before* compiling so nested
        # invocations of this method during compilation cannot re-enter.
        rm.samples.threshold = NEVER
        current = rm.compiled.opt_level
        if not cfg.enabled or self._compiling or current >= OPT_LEVEL:
            return
        accelerated = rm.info.qualified_name in cfg.accelerated
        tel = _tel_maybe(self.vm.telemetry)
        if tel is not None:
            tel.emit(
                "tier_promote",
                method=rm.info.qualified_name,
                from_level=current,
                to_level=OPT_LEVEL,
                ticks=rm.samples.ticks,
                invocations=rm.samples.invocations,
                accelerated=accelerated,
            )
            tel.count(f"adaptive.promotions.opt{OPT_LEVEL}")
            tel.observe(
                "adaptive.ticks_at_promotion",
                rm.samples.ticks,
                bounds=COUNT_BUCKETS,
            )
        self.recompile(rm, OPT_LEVEL)

    def recompile(self, rm: Any, opt_level: int) -> None:
        """Compile ``rm`` at ``opt_level``, install, notify listeners."""
        vm = self.vm
        self._compiling = True
        tel = _tel_maybe(vm.telemetry)
        try:
            if tel is not None:
                tel.emit(
                    "compile_begin",
                    method=rm.info.qualified_name,
                    opt_level=opt_level,
                    special=False,
                )
            start = time.perf_counter()
            new_cm = vm.opt_compiler.compile(rm, opt_level)
            seconds = time.perf_counter() - start
            rm.compile_history.append((opt_level, seconds))
            if getattr(new_cm, "from_cache", False):
                vm.compile_stats.cached_methods += 1
            vm.compile_stats.record(
                CompileEvent(
                    qualified_name=rm.info.qualified_name,
                    opt_level=opt_level,
                    seconds=seconds,
                    code_size_bytes=new_cm.code_size_bytes,
                    num_versions=1,
                )
            )
            if tel is not None:
                tel.emit(
                    "compile_end",
                    dur=seconds,
                    method=rm.info.qualified_name,
                    opt_level=opt_level,
                    special=False,
                    code_size_bytes=new_cm.code_size_bytes,
                )
                tel.count(f"compile.count.opt{opt_level}")
                tel.count(
                    "compile.code_bytes", new_cm.code_size_bytes
                )
                tel.observe(f"compile.seconds.opt{opt_level}", seconds)
                tel.metrics.gauge("vm.compile_seconds").set(
                    vm.compile_stats.total_seconds
                )
            vm.installer.install_general(rm, new_cm)
            for listener in self.recompile_listeners:
                listener(rm, opt_level)
        finally:
            self._compiling = False
