"""Flow-sensitive escape analysis for private reference fields.

This is the CFG-backed replacement for the syntactic collector in
:mod:`repro.mutation.lifetime` (paper §4's private-reference-field
analysis).  The syntactic walker resets its abstract stack to *unknown*
at every block leader, so any candidate-field value that crosses a
branch join — e.g. a ``g`` sitting under a ternary sub-expression used
as a call argument — silently loses its identity and its escape is
missed.  Here the same per-value facts are carried through joins by a
forward dataflow over :class:`repro.analysis.cfg.InstrCFG`.

Abstract values are *provenance tag sets* (one frozenset per stack slot
and local slot):

* ``("other",)`` — unknown provenance (always kept explicit so a join
  of *known* and *unknown* stays distinguishable from *known*);
* ``("this",)`` — the receiver;
* ``("g", key)`` — a load of candidate private reference field ``key``;
* ``("newraw", cls)`` — an allocated, not-yet-constructed object;
* ``("new", cls, ctor_key)`` — a constructed ``new cls(...)`` via one
  specific constructor.

The join is pointwise union, the tag domain is finite, and transfers
only add tags or rebuild slots, so the fixed point exists.  Only normal
CFG edges are followed: Jx has no catch handlers, so an exception
unwinds the method and performs no further program actions.

Escape/assignment effects fire as (monotone, idempotent) side effects
of the transfer function, mirroring ``_RefFieldCollector`` exactly:
storing a ``g`` value into a field, static, array or returning it
escapes it; passing it as a call argument escapes it except in the
receiver position of a virtual/interface dispatch; a candidate-field
store whose value carries any non-``new`` tag disqualifies the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.bytecode.classfile import MethodInfo, ProgramUnit
from repro.bytecode.opcodes import CALL_OPS, OP_INFO, Op
from repro.analysis.cfg import InstrCFG
from repro.analysis.dataflow import solve_forward
from repro.bytecode.ctorfields import field_key
from repro.bytecode.stacksim import _call_returns

OTHER_TAG = ("other",)
THIS_TAG = ("this",)

_UNKNOWN = frozenset({OTHER_TAG})


@dataclass
class RefFieldFacts:
    """Escape facts for one candidate private reference field; shape-
    compatible with ``lifetime._RefFieldFacts``."""

    #: (target class, ctor key) per ``new`` assignment seen.
    assignments: list[tuple[str, str]] = field(default_factory=list)
    escaped: bool = False
    modified_fields: set[str] = field(default_factory=set)


def _g_keys(tags: frozenset) -> list[str]:
    return [t[1] for t in tags if t[0] == "g"]


class _FlowWalker:
    """Per-method forward dataflow updating shared :class:`RefFieldFacts`."""

    def __init__(
        self,
        unit: ProgramUnit,
        method: MethodInfo,
        facts: dict[str, RefFieldFacts],
    ) -> None:
        self.unit = unit
        self.method = method
        self.facts = facts
        self.code = method.code
        self.call_returns = {
            i: _call_returns(instr, unit)
            for i, instr in enumerate(self.code)
            if instr.op in CALL_OPS or instr.op is Op.INTRINSIC
        }

    def entry_state(self) -> tuple:
        m = self.method
        nlocals = max(m.max_locals, m.num_args)
        locals_ = [_UNKNOWN] * nlocals
        if not m.is_static and nlocals:
            locals_[0] = frozenset({THIS_TAG})
        return ((), tuple(locals_))

    def _escape(self, tags: frozenset) -> None:
        for key in _g_keys(tags):
            self.facts[key].escaped = True

    def transfer(self, i: int, state: tuple) -> tuple:
        if i >= len(self.code):
            return state  # the CFG's synthetic EXIT node
        stack, locals_ = list(state[0]), state[1]
        instr = self.code[i]
        op = instr.op
        facts = self.facts
        if op is Op.CONST:
            stack.append(_UNKNOWN)
        elif op is Op.LOAD:
            stack.append(locals_[instr.arg])
        elif op is Op.STORE:
            value = stack.pop()
            loc = list(locals_)
            loc[instr.arg] = value  # strong update: kills the old tags
            locals_ = tuple(loc)
        elif op is Op.GETFIELD:
            stack.pop()
            key = field_key(self.unit, *instr.arg)
            stack.append(
                frozenset({("g", key)}) if key in facts else _UNKNOWN
            )
        elif op is Op.PUTFIELD:
            value = stack.pop()
            stack.pop()
            key = field_key(self.unit, *instr.arg)
            for f in facts.values():
                f.modified_fields.add(key)
            if key in facts:
                for t in value:
                    if t[0] == "new":
                        entry = (t[1], t[2])
                        if entry not in facts[key].assignments:
                            facts[key].assignments.append(entry)
                    else:
                        facts[key].escaped = True  # possibly non-`new`
            self._escape(value)  # storing g into any field escapes it
        elif op is Op.PUTSTATIC:
            self._escape(stack.pop())
        elif op is Op.NEW:
            stack.append(frozenset({("newraw", instr.arg)}))
        elif op in CALL_OPS or op is Op.INTRINSIC:
            if op is Op.INTRINSIC:
                _, argc = instr.arg
                cls_name, key = None, ""
            else:
                cls_name, key, argc = instr.arg
            args = stack[-argc:] if argc else []
            if argc:
                del stack[-argc:]
            receiver_ok = op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE)
            for pos, arg in enumerate(args):
                if pos == 0 and receiver_ok:
                    continue  # calling a method *on* g is the whole point
                self._escape(arg)
            if op is Op.INVOKESPECIAL and key.startswith("<init>"):
                if stack and args and any(
                    t[0] == "newraw" for t in args[0]
                ):
                    stack[-1] = frozenset(
                        ("new", cls_name, key) if t[0] == "newraw" else t
                        for t in stack[-1]
                    )
            if self.call_returns.get(i, True):
                stack.append(_UNKNOWN)
        elif op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
            stack.pop()
        elif op is Op.JUMP or op is Op.RETURN_VOID or op is Op.NOP:
            pass
        elif op is Op.RETURN:
            self._escape(stack.pop())
        elif op is Op.ASTORE:
            value = stack.pop()
            stack.pop()
            stack.pop()
            self._escape(value)
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op is Op.CHECKCAST:
            pass  # same object out as in: tags survive the cast
        else:
            info = OP_INFO[op]
            if info.pops:
                del stack[-info.pops:]
            for _ in range(info.pushes or 0):
                stack.append(_UNKNOWN)
        return (tuple(stack), locals_)

    def run(self) -> None:
        cfg = InstrCFG(self.code)
        solve_forward(
            cfg.succs,
            self.transfer,
            join=_join,
            boundary={0: self.entry_state()},
        )


def _join(a: tuple, b: tuple) -> tuple:
    astack, alocals = a
    bstack, blocals = b
    # Verified bytecode guarantees equal stack depth at every join.
    stack = tuple(x | y for x, y in zip(astack, bstack))
    locals_ = tuple(x | y for x, y in zip(alocals, blocals))
    return (stack, locals_)


def analyze_ref_fields(
    unit: ProgramUnit, cls: Any, candidate_keys: Iterable[str]
) -> dict[str, RefFieldFacts]:
    """Escape facts for ``cls``'s candidate private reference fields,
    from a flow-sensitive walk of every method body of ``cls``."""
    facts = {key: RefFieldFacts() for key in candidate_keys}
    if not facts:
        return facts
    for method in cls.methods.values():
        if method.is_abstract or not method.code:
            continue
        _FlowWalker(unit, method, facts).run()
    return facts
