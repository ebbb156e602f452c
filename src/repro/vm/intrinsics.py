"""Intrinsic functions backing the Jx standard library.

The stdlib's ``Sys`` class exposes these as ordinary static methods whose
bodies are a single ``INTRINSIC`` instruction.  Implementations are pure
Python over VM values and receive an :class:`IntrinsicContext` carrying
program output and the deterministic RNG.

The RNG is a 48-bit LCG with ``java.util.Random``'s constants so workload
traffic (e.g. the SPECjbb transaction mix) is reproducible across runs and
across execution tiers (interpreter / opt2 must see identical
streams for the mutation-equivalence property tests to be meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.vm.values import VMArray, VMRuntimeError, jx_str, jx_truncate_div


class IntrinsicContext:
    """Per-VM state visible to intrinsics: output buffer + RNG."""

    _LCG_MULT = 0x5DEECE66D
    _LCG_ADD = 0xB
    _LCG_MASK = (1 << 48) - 1

    def __init__(self, seed: int = 42) -> None:
        self.stdout: list[str] = []
        self._rng_state = (seed ^ self._LCG_MULT) & self._LCG_MASK

    def write(self, text: str) -> None:
        self.stdout.append(text)

    def output(self) -> str:
        return "".join(self.stdout)

    def rand_seed(self, seed: int) -> None:
        self._rng_state = (seed ^ self._LCG_MULT) & self._LCG_MASK

    def _next_bits(self, bits: int) -> int:
        self._rng_state = (
            self._rng_state * self._LCG_MULT + self._LCG_ADD
        ) & self._LCG_MASK
        return self._rng_state >> (48 - bits)

    def rand_int(self, bound: int) -> int:
        if bound <= 0:
            raise VMRuntimeError(f"randInt bound must be positive, got {bound}")
        # Rejection sampling per java.util.Random.nextInt(int).
        while True:
            bits = self._next_bits(31)
            val = bits % bound
            if bits - val + (bound - 1) < (1 << 31):
                return val

    def rand_double(self) -> float:
        return ((self._next_bits(26) << 27) + self._next_bits(27)) / float(
            1 << 53
        )


@dataclass(frozen=True)
class Intrinsic:
    """One intrinsic: arity, whether it pushes a result, implementation."""

    name: str
    nargs: int
    returns: bool
    fn: Callable[..., Any] = field(compare=False)


def _check_str_index(s: str, i: int) -> None:
    if not 0 <= i < len(s):
        raise VMRuntimeError(f"string index {i} out of range [0, {len(s)})")


def _substr(ctx: IntrinsicContext, s: str, start: int, end: int) -> str:
    if not (0 <= start <= end <= len(s)):
        raise VMRuntimeError(
            f"substring bounds [{start}, {end}) invalid for length {len(s)}"
        )
    return s[start:end]


def _split(ctx: IntrinsicContext, s: str, sep: str) -> VMArray:
    parts = s.split(sep) if sep else list(s)
    arr = VMArray("string", len(parts))
    arr.data = parts
    return arr


def _str_join(ctx: IntrinsicContext, parts: VMArray, n: int) -> str:
    if not 0 <= n <= len(parts.data):
        raise VMRuntimeError(f"strJoin count {n} out of range")
    return "".join(p if p is not None else "null" for p in parts.data[:n])


def _java_string_hash(ctx: IntrinsicContext, s: str) -> int:
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    if h >= 1 << 31:
        h -= 1 << 32
    return h


def _parse_int(ctx: IntrinsicContext, s: str) -> int:
    try:
        return int(s.strip())
    except ValueError:
        raise VMRuntimeError(f"cannot parse int from {s!r}") from None


def _parse_double(ctx: IntrinsicContext, s: str) -> float:
    try:
        return float(s.strip())
    except ValueError:
        raise VMRuntimeError(f"cannot parse double from {s!r}") from None


def _floor_div_double(x: float) -> int:
    import math

    return math.floor(x)


def _build_table() -> dict[str, Intrinsic]:
    import math

    def I(name: str, nargs: int, returns: bool, fn: Callable[..., Any]):
        return Intrinsic(name, nargs, returns, fn)

    table = [
        # -- output --
        I("print", 1, False, lambda ctx, s: ctx.write(jx_str(s) + "\n")),
        I("printRaw", 1, False, lambda ctx, s: ctx.write(jx_str(s))),
        # -- strings --
        I("str_len", 1, True, lambda ctx, s: len(s)),
        I("str_charAt", 2, True,
          lambda ctx, s, i: (_check_str_index(s, i), s[i])[1]),
        I("str_ord", 2, True,
          lambda ctx, s, i: (_check_str_index(s, i), ord(s[i]))[1]),
        I("str_chr", 1, True, lambda ctx, i: chr(i)),
        I("str_substr", 3, True, _substr),
        I("str_indexOf", 2, True, lambda ctx, s, t: s.find(t)),
        I("str_split", 2, True, _split),
        I("str_trim", 1, True, lambda ctx, s: s.strip()),
        I("str_replace", 3, True, lambda ctx, s, a, b: s.replace(a, b)),
        I("str_lower", 1, True, lambda ctx, s: s.lower()),
        I("str_upper", 1, True, lambda ctx, s: s.upper()),
        I("str_startsWith", 2, True, lambda ctx, s, p: s.startswith(p)),
        I("str_endsWith", 2, True, lambda ctx, s, p: s.endswith(p)),
        I("str_contains", 2, True, lambda ctx, s, t: t in s),
        I("str_join", 2, True, _str_join),
        I("str_repeat", 2, True, lambda ctx, s, n: s * max(n, 0)),
        I("str_compare", 2, True,
          lambda ctx, a, b: -1 if a < b else (1 if a > b else 0)),
        I("str_hash", 1, True, _java_string_hash),
        I("parse_int", 1, True, _parse_int),
        I("parse_double", 1, True, _parse_double),
        I("itos", 1, True, lambda ctx, i: str(i)),
        I("dtos", 1, True, lambda ctx, d: jx_str(float(d))),
        # -- math --
        I("math_sqrt", 1, True, lambda ctx, x: math.sqrt(x)),
        I("math_log", 1, True, lambda ctx, x: math.log(x)),
        I("math_exp", 1, True, lambda ctx, x: math.exp(x)),
        I("math_pow", 2, True, lambda ctx, x, y: math.pow(x, y)),
        I("math_floor", 1, True, lambda ctx, x: _floor_div_double(x)),
        I("math_ceil", 1, True, lambda ctx, x: math.ceil(x)),
        I("math_abs", 1, True, lambda ctx, x: abs(float(x))),
        I("math_iabs", 1, True, lambda ctx, x: abs(int(x))),
        I("math_imin", 2, True, lambda ctx, a, b: min(a, b)),
        I("math_imax", 2, True, lambda ctx, a, b: max(a, b)),
        I("math_dmin", 2, True, lambda ctx, a, b: min(a, b)),
        I("math_dmax", 2, True, lambda ctx, a, b: max(a, b)),
        I("math_round", 1, True, lambda ctx, x: int(math.floor(x + 0.5))),
        # -- rng --
        I("rand_seed", 1, False, lambda ctx, s: ctx.rand_seed(s)),
        I("rand_int", 1, True, lambda ctx, n: ctx.rand_int(n)),
        I("rand_double", 0, True, lambda ctx: ctx.rand_double()),
    ]
    return {i.name: i for i in table}


#: The global intrinsic registry, keyed by intrinsic name.
INTRINSICS: dict[str, Intrinsic] = _build_table()


def intrinsic_returns() -> dict[str, bool]:
    """Name → pushes-a-result map, consumed by the bytecode verifier."""
    return {name: i.returns for name, i in INTRINSICS.items()}
