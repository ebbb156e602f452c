"""Swap coalescing: deferred TIB re-evaluation for multi-field state
updates (ROADMAP's hook-batching item).

The paper's Fig. 4 hook fires at *every* state-field assignment, so a
method that writes two state fields of the same object back-to-back
swaps the TIB twice — the first swap is immediately overwritten by the
second.  Both Pape et al. (adaptive value-class optimization) and
D'Elia & Demetrescu (OSR à la Carte) defer such code/layout transitions
to region boundaries; we do the same at hook-installation time.

A hooked PUTFIELD ``D`` may be marked **deferred** (its re-evaluation
skipped) when every path leaving it provably reaches another hooked
PUTFIELD on the same receiver local before anything can observe the
object's TIB.  "Provably" is a CFG fact from
:func:`repro.analysis.specsafety.must_reach_states`, a backward *must*
dataflow over the instruction CFG:

* only :data:`SAFE_BETWEEN` instructions (straight-line, non-raising,
  no calls, no dispatch) and pure branches may sit on the path — any
  potentially-raising op, call, or other field store is a **barrier**
  that ends the region.  Dispatch is the crux: specialized code is
  selected through the TIB, so no dispatch may happen while the TIB is
  stale;
* a STORE to the receiver local ends the region (the later write would
  target a different object);
* loop back-edges count as leaving the region, so deferral obligations
  are well-founded: two writes in a loop body cannot justify each other
  around the back edge, and the justifying write always has a strictly
  larger index.

Earlier versions treated *any* branch as a barrier (a linear scan over
the instruction array).  The CFG formulation subsumes that: a diamond
whose both arms re-write the field now coalesces, while any path that
actually leaves the region still keeps the re-evaluating hook.  See
DESIGN.md decision 15.

Because re-evaluation reads the *current* field values (it is
idempotent and history-free), jumping *into* the middle of a region is
harmless: whichever write executes last still re-evaluates.

Constructor bodies coalesce like any other method; the constructor-exit
hook (Fig. 4, first clause) is never deferred.  PUTSTATIC hooks repoint
compiled code globally and are not coalesced.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.classfile import MethodInfo
from repro.analysis.specsafety import (
    TIB_TRANSPARENT,
    HookSiteRecorder,
    deferral_is_safe,
    must_reach_states,
)
from repro.bytecode.stacksim import walk_method

#: Opcodes allowed inside a deferral region (between a deferred state
#: write and the region's re-evaluating write).  Everything here is
#: non-raising, transfers no control, and performs no dispatch — so the
#: stale-TIB window cannot be observed.  Notable exclusions: IDIV/IREM
#: (divide by zero), D2I (overflow), GETFIELD / ALOAD / ASTORE /
#: ARRAYLEN / CHECKCAST (null / bounds / cast errors), all calls, and
#: every other PUTFIELD/PUTSTATIC.  Alias of the analysis package's
#: single source of truth.
SAFE_BETWEEN = TIB_TRANSPARENT


def deferrable_writes(method: MethodInfo, instance_hook: Any) -> list[int]:
    """Indices of hooked PUTFIELDs in ``method`` whose re-evaluation may
    be deferred to a later write of the same region."""
    recorder = HookSiteRecorder([instance_hook])
    walk_method(method, recorder)
    if len(recorder.sites) < 2:
        return []
    deferred = []
    states_by_local: dict[int, list[bool]] = {}
    for site in sorted(recorder.sites):
        local = recorder.sites[site]
        states = states_by_local.get(local)
        if states is None:
            states = must_reach_states(method, local, recorder.sites)
            states_by_local[local] = states
        if deferral_is_safe(method, site, local, recorder.sites, states):
            deferred.append(site)
    return deferred
