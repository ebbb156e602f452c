"""Object lifetime constant analysis (paper §4, Fig. 8).

Finds instance state fields that are, for all objects reachable through
a given private reference field, compile-time constants:

1. **Constructor assignment analysis** — record ``<field, ctor, value>``
   tuples for fields of mutable classes assigned literal constants in
   constructors, and verify no non-constructor code ever assigns them
   (:mod:`repro.bytecode.ctorfields`).
2. **Private reference field analysis** — for each private field ``g``
   in another class ``D`` whose every assignment is ``new M(...)``
   through one specific constructor: prove ``D`` never modifies the
   candidate fields and that ``g`` never escapes ``D`` (never stored to
   another field/array, never passed as a call argument — receiver
   position excepted — never returned).

The surviving fields are object lifetime constants for ``g``: any
method invoked with ``g`` as receiver may be inlined with them bound
(paper §5's specialization inlining).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bytecode.classfile import ProgramUnit
from repro.bytecode.ctorfields import (
    ctor_constant_fields,
    field_key,
    fields_assigned_outside_ctors,
)
from repro.bytecode.stacksim import StackEvent, SymValue, walk_method
from repro.mutation.plan import LifetimeConstInfo


# ---------------------------------------------------------------------------
# Step 2: private reference field + escape analysis
# ---------------------------------------------------------------------------

@dataclass
class _RefFieldFacts:
    """Per private-reference-field facts gathered from its declaring
    class's code."""

    assignments: list[tuple[str, str]] = field(default_factory=list)
    #: ctor keys seen in `new` assignments: (class, ctor key)
    escaped: bool = False
    modified_fields: set[str] = field(default_factory=set)


class _RefFieldCollector(StackEvent):
    """Walks one method of class D, updating facts for D's candidate
    private reference fields."""

    def __init__(
        self,
        unit: ProgramUnit,
        facts: dict[str, _RefFieldFacts],
        g_locals: dict[str, set[int]],
    ) -> None:
        self.unit = unit
        self.facts = facts
        self.g_locals = g_locals
        self.grew = False

    def _g_keys_of(self, value: SymValue) -> list[str]:
        """Candidate field keys this value is a direct load of."""
        kind = value.kind
        if kind[0] == "fieldload" and kind[1] in self.facts:
            return [kind[1]]
        if kind[0] == "local":
            return [
                key
                for key, locals_ in self.g_locals.items()
                if kind[1] in locals_
            ]
        return []

    def on_local_store(self, index, instr, local, value) -> None:
        for key in self._g_keys_of(value):
            if local not in self.g_locals[key]:
                self.g_locals[key].add(local)
                self.grew = True

    def on_putfield(self, index, instr, receiver, value) -> None:
        cls_name, field_name = instr.arg
        key = field_key(self.unit, cls_name, field_name)
        # Record modifications of *any* field (checked against olc sets).
        for facts in self.facts.values():
            facts.modified_fields.add(key)
        if key in self.facts:
            if value.kind[0] == "new":
                self.facts[key].assignments.append(
                    (value.kind[1], value.kind[2])
                )
            else:
                self.facts[key].escaped = True  # non-`new` assignment
        # Storing a g value into another field escapes it.
        for gk in self._g_keys_of(value):
            self.facts[gk].escaped = True

    def on_putstatic(self, index, instr, value) -> None:
        for gk in self._g_keys_of(value):
            self.facts[gk].escaped = True

    def on_astore(self, index, instr, value) -> None:
        for gk in self._g_keys_of(value):
            self.facts[gk].escaped = True

    def on_return(self, index, instr, value) -> None:
        for gk in self._g_keys_of(value):
            self.facts[gk].escaped = True

    def on_call(self, index, instr, args) -> None:
        from repro.bytecode.opcodes import Op

        receiver_ok = instr.op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE)
        for pos, arg in enumerate(args):
            if pos == 0 and receiver_ok:
                continue  # calling a method *on* g is the whole point
            for gk in self._g_keys_of(arg):
                self.facts[gk].escaped = True


def _syntactic_ref_facts(
    unit: ProgramUnit, cls, candidates: dict
) -> dict[str, _RefFieldFacts]:
    """The original linear-walk escape collector (kept for differential
    testing against the CFG engine; see ``tests/test_analysis.py``).

    Known blind spot: the walker resets its stack at block leaders, so a
    candidate value that crosses a branch join — e.g. ``g`` below a
    ternary sub-expression in a call's argument list — is anonymized
    and its escape can be missed.  The CFG engine has no such reset.
    """
    facts = {key: _RefFieldFacts() for key in candidates}
    g_locals: dict[str, set[int]] = {key: set() for key in candidates}
    # Fixpoint over g-holding locals (loops can defeat one pass).
    for _ in range(4):
        grew = False
        for method in cls.methods.values():
            if method.is_abstract or not method.code:
                continue
            collector = _RefFieldCollector(unit, facts, g_locals)
            walk_method(method, collector, unit=unit)
            grew = grew or collector.grew
        if not grew:
            break
    return facts


def analyze_lifetime_constants(
    unit: ProgramUnit, mutable_classes: list[str], *, engine: str = "cfg"
) -> dict[str, LifetimeConstInfo]:
    """Run the full Fig. 8 algorithm; returns ref-field key -> info.

    ``engine`` selects the escape analysis backing step 2: ``"cfg"``
    (default) uses the flow-sensitive engine from
    :mod:`repro.analysis.escape`; ``"syntactic"`` keeps the original
    linear-scan collector for cross-checking.
    """
    # Step 1 per mutable class.
    ctor_consts: dict[str, dict[str, dict[str, object]]] = {}
    outside_writes: dict[str, set[str]] = {}
    for m in mutable_classes:
        ctor_consts[m] = ctor_constant_fields(unit, m)
        outside_writes[m] = fields_assigned_outside_ctors(unit, m)

    results: dict[str, LifetimeConstInfo] = {}
    mutable_set = set(mutable_classes)

    for cls in unit.classes.values():
        if cls.is_interface:
            continue
        candidates = {
            f"{cls.name}.{finfo.name}": finfo
            for finfo in cls.fields.values()
            if not finfo.is_static
            and finfo.access == "private"
            and not finfo.type.is_array
            and finfo.type.name in mutable_set
        }
        if not candidates:
            continue
        if engine == "cfg":
            from repro.analysis.escape import analyze_ref_fields

            facts = analyze_ref_fields(unit, cls, set(candidates))
        else:
            facts = _syntactic_ref_facts(unit, cls, candidates)

        for key, finfo in candidates.items():
            f = facts[key]
            if f.escaped or not f.assignments:
                continue
            target_classes = {a[0] for a in f.assignments}
            ctor_keys = {a[1] for a in f.assignments}
            if len(target_classes) != 1 or len(ctor_keys) != 1:
                continue  # must always be `new M(...)` via one constructor
            target = next(iter(target_classes))
            if target != finfo.type.name or target not in mutable_set:
                continue
            ctor_key = next(iter(ctor_keys))
            constants = dict(ctor_consts[target].get(ctor_key, {}))
            # Drop fields modified outside target ctors, or by D itself.
            constants = {
                fk: v
                for fk, v in constants.items()
                if fk not in outside_writes[target]
                and fk not in f.modified_fields
            }
            if not constants:
                continue
            results[key] = LifetimeConstInfo(
                ref_field_key=key,
                target_class=target,
                field_values_by_name={
                    fk.rpartition(".")[2]: v for fk, v in constants.items()
                },
            )
    return results
