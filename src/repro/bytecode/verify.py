"""Structural bytecode verifier.

Checks the properties the rest of the system relies on:

* every branch target is a valid instruction index;
* execution cannot fall off the end of the code array;
* the operand-stack depth at each instruction is consistent across all
  paths reaching it (a requirement for the stack-to-register lowering in
  :mod:`repro.opt.lowering`);
* local indices are within ``max_locals``;
* call/intrinsic argument counts are non-negative;
* pristine code contains no runtime-only quickened opcode
  (:data:`~repro.bytecode.opcodes.QUICK_OPS`).

The verifier returns the per-instruction entry stack depth map, which the
IR lowering reuses.

Quickened bodies (``rm.quick_code``) have their own entry,
:func:`verify_quick`: the same structural rules, but execution is
width-aware (a superinstruction covers several slots and the next
instruction executed is ``pc + width``), branch targets come from the
packed args (:func:`~repro.bytecode.opcodes.branch_target`) and may
legally land *inside* a fused region (fusion is slot-preserving), and
call push-counts come from the linked resolution state instead of a
frontend-provided map.
"""

from __future__ import annotations

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import (
    CALL_OPS,
    OP_INFO,
    QUICK_OPS,
    Op,
    branch_target,
    op_width,
)


class VerifyError(Exception):
    """Raised when a method body violates bytecode structural rules."""

    def __init__(self, method: MethodInfo, index: int, message: str) -> None:
        self.method = method
        self.index = index
        super().__init__(f"{method.qualified_name} @{index}: {message}")


def stack_effect(instr: Instr, *, returns_value: bool | None = None) -> tuple[int, int]:
    """Return ``(pops, pushes)`` for ``instr``.

    For call instructions the pop count comes from the encoded ``nargs``;
    whether the call pushes depends on the callee's return type, which the
    verifier does not know — callers pass ``returns_value`` when they do.
    The verifier itself treats unknown-return calls as pushing a value if
    followed by anything other than an immediate POP-less terminator; to
    stay sound it instead requires the *frontend* to emit an explicit POP
    after void-returning expression statements, so here a call is assumed
    to push exactly when ``returns_value`` is not ``False``.
    """
    info = OP_INFO[instr.op]
    if instr.op in CALL_OPS:
        nargs = instr.arg[2]
        pushes = 1 if returns_value in (True, None) else 0
        return nargs, pushes
    if instr.op is Op.INTRINSIC:
        nargs = instr.arg[1]
        pushes = 1 if returns_value in (True, None) else 0
        return nargs, pushes
    return info.pops, info.pushes


def verify_method(
    method: MethodInfo,
    call_returns: dict[int, bool] | None = None,
) -> list[int]:
    """Verify ``method`` and return the entry stack depth per instruction.

    Args:
        method: The method to verify (abstract methods verify trivially).
        call_returns: Optional map from instruction index to whether the
            call/intrinsic at that index pushes a result.  When provided
            (the frontend records this), depth checking is exact.

    Raises:
        VerifyError: On any structural violation.
    """
    if method.is_abstract:
        return []
    code = method.code
    if not code:
        raise VerifyError(method, 0, "empty code array")
    call_returns = call_returns or {}

    n = len(code)
    # Branch-target validity.
    for i, instr in enumerate(code):
        if instr.op in QUICK_OPS:
            raise VerifyError(
                method, i,
                f"runtime-only quickened opcode {instr.op.name} "
                f"in pristine code",
            )
        if instr.is_branch and instr.op not in (Op.RETURN, Op.RETURN_VOID):
            if not isinstance(instr.arg, int) or not (0 <= instr.arg < n):
                raise VerifyError(method, i, f"bad branch target {instr.arg!r}")
        if instr.op in (Op.LOAD, Op.STORE):
            if not (0 <= instr.arg < method.max_locals):
                raise VerifyError(
                    method, i,
                    f"local index {instr.arg} out of range "
                    f"(max_locals={method.max_locals})",
                )
        if instr.op in CALL_OPS or instr.op is Op.INTRINSIC:
            nargs = instr.arg[2] if instr.op in CALL_OPS else instr.arg[1]
            if nargs < 0:
                raise VerifyError(method, i, f"negative arg count {nargs}")

    # Fall-through-off-the-end check.
    last = code[-1]
    if not OP_INFO[last.op].is_terminator and last.op not in (
        Op.JUMP_IF_TRUE,
        Op.JUMP_IF_FALSE,
    ):
        raise VerifyError(method, n - 1, "control can fall off end of code")
    if last.op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
        raise VerifyError(method, n - 1, "conditional branch at end of code")

    # Stack-depth dataflow.
    depths: list[int | None] = [None] * n
    depths[0] = 0
    work = [0]
    while work:
        i = work.pop()
        depth = depths[i]
        assert depth is not None
        instr = code[i]
        returns_value = call_returns.get(i)
        pops, pushes = stack_effect(instr, returns_value=returns_value)
        if depth < pops:
            raise VerifyError(
                method, i, f"stack underflow (depth={depth}, pops={pops})"
            )
        out = depth - pops + pushes
        successors: list[int] = []
        if instr.op is Op.JUMP:
            successors = [instr.arg]
        elif instr.op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
            successors = [instr.arg, i + 1]
        elif instr.op in (Op.RETURN, Op.RETURN_VOID):
            successors = []
        else:
            successors = [i + 1]
        for s in successors:
            if depths[s] is None:
                depths[s] = out
                work.append(s)
            elif depths[s] != out:
                raise VerifyError(
                    method, s,
                    f"inconsistent stack depth at join: {depths[s]} vs {out}",
                )
    return [d if d is not None else 0 for d in depths]


# ---------------------------------------------------------------------------
# Quickened bodies.

#: Ops that end execution of a quickened body (fused returns included).
_QUICK_TERMINATORS = frozenset({
    Op.RETURN,
    Op.RETURN_VOID,
    Op.ADD_RETURN,
    Op.LOAD_RETURN,
    Op.GETFIELD_RETURN,
})

#: Two-successor ops in quickened code (fall-through is ``i + width``).
_QUICK_COND_BRANCHES = frozenset({
    Op.JUMP_IF_TRUE,
    Op.JUMP_IF_FALSE,
    Op.CMP_LT_JF,
    Op.CMP_EQ_JF,
    Op.ITER_LT_JF,
})


def _quick_local_indices(instr: Instr) -> tuple[int, ...]:
    """Local-variable indices a (possibly fused) quick op reads/writes.

    Mirrors the ``locals_[...]`` accesses in ``interpret``:
    superinstructions pack locals into tuple args (``ITER_LT_JF`` packs
    ``(local, limit, target)`` — only ``a[0]`` is a local; ``FIELD_INC``
    packs ``(local, putfield_instr, const)``).
    """
    op, a = instr.op, instr.arg
    if op in (Op.LOAD, Op.STORE, Op.ADD_STORE, Op.LOAD_RETURN,
              Op.LOAD_ADD, Op.LOAD_SUB, Op.LOAD_MUL):
        return (a,)
    if op in (Op.LOAD_GETFIELD, Op.LOAD_CONST, Op.GETFIELD_RETURN,
              Op.INC, Op.ITER_LT_JF, Op.FIELD_INC):
        return (a[0],)
    if op is Op.LOAD_LOAD:
        return (a[0], a[1])
    return ()


def stack_effect_quick(instr: Instr) -> tuple[int, int]:
    """``(pops, pushes)`` for an instruction in a quickened body.

    Unlike :func:`stack_effect`, call push-counts come from the *linked*
    resolution state (``instr.resolved``) — a quickened body only exists
    after the method ran, so every call site is resolved.  An unresolved
    call (possible in hand-built test code) falls back to "pushes".
    """
    op = instr.op
    if op in CALL_OPS:
        resolved = instr.resolved
        pushes = 1
        if isinstance(resolved, tuple):
            pushes = 1 if resolved[-1] else 0
        return instr.arg[2], pushes
    if op in (Op.INVOKEVIRTUAL_QUICK, Op.INVOKEINTERFACE_QUICK):
        ic = instr.resolved
        if ic is None:
            return instr.arg[2], 1
        return ic.argc, 1 if ic.returns else 0
    if op is Op.INTRINSIC:
        intr = instr.resolved
        if intr is None:
            return instr.arg[1], 1
        return intr.nargs, 1 if intr.returns else 0
    info = OP_INFO[instr.op]
    return info.pops, info.pushes


def _check_slot_kind(method: MethodInfo, i: int, instr: Instr) -> None:
    """Field-slot rule for quickened bodies: every quick form that
    indexes ``obj.fields`` directly must carry the plain ``int`` slot
    the linker resolved; anything else is a resolution bug."""
    op = instr.op
    if op is Op.GETFIELD_QUICK:
        slot = instr.resolved
    elif op in (Op.LOAD_GETFIELD, Op.GETFIELD_RETURN):
        slot = instr.arg[1]
    elif op is Op.ADD_PUTFIELD:
        slot = instr.arg.resolved
    elif op is Op.FIELD_INC:
        slot = instr.arg[1].resolved
    else:
        return
    if type(slot) is not int:
        raise VerifyError(
            method, i, f"{op.name} must carry a plain int slot, got {slot!r}"
        )


def verify_quick(method: MethodInfo, code: list[Instr]) -> list[int]:
    """Verify a quickened body and return entry stack depth per slot.

    The structural rules of :func:`verify_method`, adapted to quickened
    execution:

    * traversal is width-aware — after a fused op at slot ``i`` the next
      instruction executed is ``i + op_width(op)``;
    * branch targets come from :func:`~repro.bytecode.opcodes.branch_target`
      (``ITER_LT_JF`` packs its target) and may land *inside* a fused
      region, because fusion is slot-preserving: every covered slot still
      holds its original standalone instruction, which this traversal
      then verifies along that path;
    * local indices packed into superinstruction args are range-checked
      for **every** slot (covered slots included — they must stay valid
      branch-landing pads);
    * stack depth must be path-consistent over all *executed* slots.

    Raises:
        VerifyError: On any structural violation.
    """
    if not code:
        raise VerifyError(method, 0, "empty quickened code array")
    n = len(code)

    # Per-slot checks: every slot (covered or not) must hold a valid
    # standalone-executable instruction.
    for i, instr in enumerate(code):
        target = branch_target(instr)
        if target is not None and not (0 <= target < n):
            raise VerifyError(method, i, f"bad branch target {target!r}")
        for local in _quick_local_indices(instr):
            if not (0 <= local < method.max_locals):
                raise VerifyError(
                    method, i,
                    f"local index {local} out of range "
                    f"(max_locals={method.max_locals})",
                )
        if instr.op in CALL_OPS or instr.op is Op.INTRINSIC:
            nargs = (instr.arg[2] if instr.op in CALL_OPS
                     else instr.arg[1])
            if nargs < 0:
                raise VerifyError(method, i, f"negative arg count {nargs}")
        _check_slot_kind(method, i, instr)

    # Width-aware stack-depth dataflow over executed slots.
    depths: list[int | None] = [None] * n
    depths[0] = 0
    work = [0]
    while work:
        i = work.pop()
        depth = depths[i]
        assert depth is not None
        instr = code[i]
        op = instr.op
        pops, pushes = stack_effect_quick(instr)
        if depth < pops:
            raise VerifyError(
                method, i, f"stack underflow (depth={depth}, pops={pops})"
            )
        out = depth - pops + pushes
        if op in _QUICK_TERMINATORS:
            successors: list[int] = []
        elif op is Op.JUMP:
            successors = [instr.arg]
        elif op in _QUICK_COND_BRANCHES:
            successors = [branch_target(instr), i + op_width(op)]
        else:
            successors = [i + op_width(op)]
        for s in successors:
            if s >= n:
                raise VerifyError(
                    method, i, "control can fall off end of quickened code"
                )
            if depths[s] is None:
                depths[s] = out
                work.append(s)
            elif depths[s] != out:
                raise VerifyError(
                    method, s,
                    f"inconsistent stack depth at join: {depths[s]} vs {out}",
                )
    return [d if d is not None else 0 for d in depths]


def verify_quick_method(rm) -> list[int]:
    """Verify ``rm.quick_code`` (a no-op empty result for an empty or
    not-yet-built body)."""
    if not getattr(rm, "quick_code", None):
        return []
    return verify_quick(rm.info, rm.quick_code)


def verify_program(program, call_returns_by_method=None) -> None:
    """Verify every concrete method in ``program``.

    Args:
        program: A :class:`~repro.bytecode.classfile.ProgramUnit`.
        call_returns_by_method: Optional ``{qualified_name: {index: bool}}``.
    """
    call_returns_by_method = call_returns_by_method or {}
    for method in program.all_methods():
        if not method.is_abstract:
            verify_method(
                method, call_returns_by_method.get(method.qualified_name)
            )
