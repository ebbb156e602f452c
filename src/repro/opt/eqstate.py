"""Equivalence-modulo-state analysis for specialization sharing.

Fig. 10/12's cost model is linear: every hot state gets its own special
TIB and its own compiled copy of every mutable method, even when the
method never reads the fields two states differ on.  The EMS insight
(PAPERS.md, "Faster Mutation Analysis via Equivalence Modulo States")
is that a specialized body only depends on the *projection* of the hot
state onto the state-field slots the method actually reads — two states
with equal projections compile to byte-identical code and can share one
body.

:func:`state_reads` computes that read set on the post-inline opt2 IR
(the exact IR :func:`repro.opt.specialize.specialize_ir` rewrites),
flow-sensitively via :func:`repro.analysis.dataflow.solve_forward`: a
read dominated on every path by a write of the same slot never reaches
the specializer's constants, so it does not count.  Slots the method
writes anywhere are then subtracted outright, mirroring
``specialize_ir``'s conservative skip sets — the result is exactly the
set of slots whose bound values can influence the generated code, so

    projections equal  =>  specialized bodies identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import solve_forward
from repro.opt.ir import IRFunction, Reg
from repro.opt.specialize import (
    _written_instance_slots,
    _written_static_slots,
    this_aliases,
)

__all__ = ["StateReads", "state_reads"]


@dataclass(frozen=True)
class StateReads:
    """Per-method state-dependency summary.

    ``instance``/``static`` are the state-field slots whose bound values
    ``specialize_ir`` can bake into this method's body; ``tib_dependent``
    marks bodies that additionally embed per-TIB deopt guards
    (:func:`repro.vm.osr.insert_deopt_points` fires on a this-aliased
    hooked state write), making them identity-dependent on the special
    TIB they were compiled against.
    """

    instance: frozenset[int]
    static: frozenset[int]
    tib_dependent: bool

    def project(self, instance: dict, static: dict) -> tuple:
        """Canonical projection of one state's bindings onto the read
        sets — the body-sharing key component: states with equal
        projections get byte-identical specialized code."""
        return (
            tuple(
                (slot, type(v).__name__, v)
                for slot, v in sorted(instance.items())
                if slot in self.instance
            ),
            tuple(
                (slot, type(v).__name__, v)
                for slot, v in sorted(static.items())
                if slot in self.static
            ),
        )


def state_reads(
    fn: IRFunction,
    instance_slots: set[int] | frozenset[int] | list[int],
    static_slots: set[int] | frozenset[int] | list[int],
) -> StateReads:
    """Compute the state-field slots ``fn``'s compiled body can depend
    on, given the candidate instance/static slot sets of its class plan.

    Flow-sensitive must-write analysis: the dataflow state at a program
    point is the pair of slot sets written on *every* path from entry
    (intersection join), and a ``getfield``/``getstatic`` only counts as
    a read when its slot is not in that set.  Collection happens inside
    the transfer function; ``solve_forward`` re-runs a node whenever its
    in-state changes and in-states only shrink under intersection, so
    the last run of each node — against its fixpoint in-state — collects
    the maximal (correct) read set.
    """
    interesting_inst = frozenset(instance_slots)
    interesting_stat = frozenset(static_slots)
    aliases = this_aliases(fn)
    order = fn.block_order()
    if not order:
        return StateReads(frozenset(), frozenset(), False)
    index_of = {block.id: i for i, block in enumerate(order)}
    succs = [
        [index_of[s] for s in block.successors() if s in index_of]
        for block in order
    ]

    reads_inst: set[int] = set()
    reads_stat: set[int] = set()
    tib_dependent = False

    def transfer(node: int, state):
        nonlocal tib_dependent
        written_inst, written_stat = state
        for instr in order[node].instrs:
            op = instr.op
            if op == "getfield":
                slot = instr.extra.slot
                obj = instr.args[0]
                if (
                    slot in interesting_inst
                    and slot not in written_inst
                    and isinstance(obj, Reg)
                    and obj.name in aliases
                ):
                    reads_inst.add(slot)
            elif op == "getstatic":
                slot = instr.extra.slot
                if slot in interesting_stat and slot not in written_stat:
                    reads_stat.add(slot)
            elif op == "putfield":
                slot = instr.extra.slot
                obj = instr.args[0]
                if isinstance(obj, Reg) and obj.name in aliases:
                    if slot in interesting_inst:
                        written_inst = written_inst | {slot}
                    ex = instr.extra
                    if (
                        getattr(ex, "hook", None) is not None
                        and getattr(ex, "pc", None) is not None
                    ):
                        # Over-approximates insert_deopt_points' guard
                        # condition (any hooked write counts, not just
                        # re-evaluating ones): sound — at worst a body
                        # is treated as TIB-pinned when it is not, which
                        # only forgoes sharing.
                        tib_dependent = True
            elif op == "putstatic":
                slot = instr.extra.slot
                if slot in interesting_stat:
                    written_stat = written_stat | {slot}
            # Calls neither kill nor read: specialize_ir's skip sets are
            # intra-procedural too, and callees run through their own
            # dispatch (a special body never inlines another method's
            # state reads — inlining happened before specialization and
            # inlined loads carry their own receiver registers, handled
            # by the this-alias check above).
        return (written_inst, written_stat)

    def join(a, b):
        return (a[0] & b[0], a[1] & b[1])

    solve_forward(
        succs, transfer, join,
        boundary={0: (frozenset(), frozenset())},
    )
    # Mirror specialize_ir's flow-insensitive skip sets: a slot the
    # method writes anywhere is never replaced, so it cannot steer the
    # body even if some read of it is not dominated by a write.
    reads_inst -= _written_instance_slots(fn, aliases)
    reads_stat -= _written_static_slots(fn)
    return StateReads(
        frozenset(reads_inst), frozenset(reads_stat), tib_dependent
    )

