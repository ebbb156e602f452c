"""Constructor-assigned constant fields (step 1 of paper §4, Fig. 8).

Two bytecode-level predicates behind the offline lifetime-constant
analysis (:mod:`repro.mutation.lifetime`):

* :func:`ctor_constant_fields` — the ``<field, ctor, value>`` tuples of
  fields a class's constructors assign literal constants on ``this``;
* :func:`fields_assigned_outside_ctors` — the field keys any other code
  in the program writes.

They live in the bytecode layer (this module imports nothing above
it), so using them never pulls in the mutation system or the
optimizer.
"""

from __future__ import annotations

from repro.bytecode.classfile import ProgramUnit
from repro.bytecode.stacksim import StackEvent, walk_method


def field_key(unit: ProgramUnit, cls_name: str, field_name: str) -> str:
    """``Declaring.name`` of a field reference (``cls.name`` when the
    lookup fails)."""
    finfo = unit.lookup_field(cls_name, field_name)
    if finfo is None:
        return f"{cls_name}.{field_name}"
    return f"{finfo.declaring_class}.{finfo.name}"


class _CtorAssignCollector(StackEvent):
    def __init__(self, unit: ProgramUnit) -> None:
        self.unit = unit
        #: field key -> constant value (last assignment wins)
        self.constants: dict[str, object] = {}
        #: field keys assigned non-constants or via non-this receivers
        self.disqualified: set[str] = set()

    def on_putfield(self, index, instr, receiver, value) -> None:
        cls_name, field_name = instr.arg
        key = field_key(self.unit, cls_name, field_name)
        if receiver.kind != ("this",):
            self.disqualified.add(key)
            return
        if value.kind[0] == "const":
            self.constants[key] = value.kind[1]
        else:
            self.disqualified.add(key)


def ctor_constant_fields(
    unit: ProgramUnit, class_name: str
) -> dict[str, dict[str, object]]:
    """``ctor key -> {field key: constant}`` for one class's constructors."""
    cls = unit.classes.get(class_name)
    if cls is None:
        return {}
    out: dict[str, dict[str, object]] = {}
    for key, method in cls.methods.items():
        if not method.is_constructor:
            continue
        collector = _CtorAssignCollector(unit)
        walk_method(method, collector, unit=unit)
        constants = {
            fk: v
            for fk, v in collector.constants.items()
            if fk not in collector.disqualified
        }
        out[key] = constants
    return out


def fields_assigned_outside_ctors(
    unit: ProgramUnit, class_name: str
) -> set[str]:
    """Field keys of ``class_name``'s hierarchy written by any
    non-constructor method anywhere in the program (or by another
    class's constructor)."""
    written: set[str] = set()
    for method in unit.all_methods():
        if method.is_abstract or not method.code:
            continue
        is_own_ctor = (
            method.is_constructor and method.declaring_class == class_name
        )
        if is_own_ctor:
            continue
        for instr in method.code:
            if instr.op.name == "PUTFIELD":
                cls_name, field_name = instr.arg
                written.add(field_key(unit, cls_name, field_name))
    return written
