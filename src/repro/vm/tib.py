"""Type Information Blocks (TIBs) — JxVM's virtual function tables.

A TIB is Jikes RVM's per-class method dispatch table (paper §3.2.1).
JxVM reproduces its structure:

* ``entries[offset]`` holds the current compiled method for each virtual
  method slot;
* ``type_info`` points at the runtime class — ``instanceof``/``checkcast``
  read *this*, never TIB identity, so special TIBs don't break type
  checks (paper §3.2.3);
* ``imt`` points at the interface method table, shared between a class
  TIB and all of its special TIBs (paper §3.2.3).

A **special TIB** is a copy of the class TIB associated with one hot
state of a mutable class; the mutation manager retargets its mutable-
method entries at specialized compiled code (paper §2.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.compiled import CompiledMethod

#: Modeled pointer size: every TIB slot is one machine word.
WORD_BYTES = 8
#: Header words: type-info pointer + IMT pointer.
TIB_HEADER_WORDS = 2


class TIB:
    """One virtual function table (class or special)."""

    __slots__ = ("entries", "type_info", "imt", "state", "is_special")

    def __init__(
        self,
        type_info: Any,
        entries: list["CompiledMethod"],
        imt: Any = None,
        state: Any = None,
        is_special: bool = False,
    ) -> None:
        self.type_info = type_info
        self.entries = entries
        self.imt = imt
        self.state = state
        self.is_special = is_special

    @classmethod
    def special_from(cls, class_tib: "TIB", state: Any) -> "TIB":
        """Create a special TIB for ``state`` as a replicant of the class
        TIB (paper §3.2.2: "the special TIB is exactly the same as the
        class TIB when the class is initially instantiated")."""
        return cls(
            type_info=class_tib.type_info,
            entries=list(class_tib.entries),
            imt=class_tib.imt,
            state=state,
            is_special=True,
        )

    def size_bytes(self) -> int:
        """Modeled memory footprint of this TIB (Fig. 12 accounting)."""
        return (len(self.entries) + TIB_HEADER_WORDS) * WORD_BYTES

    def __repr__(self) -> str:
        kind = f"special:{self.state}" if self.is_special else "class"
        name = getattr(self.type_info, "name", "?")
        return f"<TIB {name} [{kind}] {len(self.entries)} entries>"


class TIBSpaceTracker:
    """Accumulates TIB memory statistics for the Figure 12 experiment."""

    def __init__(self) -> None:
        self.class_tib_bytes = 0
        self.special_tib_bytes = 0
        self.special_tib_count = 0

    def record_class_tib(self, tib: TIB) -> None:
        self.class_tib_bytes += tib.size_bytes()

    def record_special_tib(self, tib: TIB) -> None:
        self.special_tib_bytes += tib.size_bytes()
        self.special_tib_count += 1

    @property
    def total_bytes(self) -> int:
        return self.class_tib_bytes + self.special_tib_bytes

    def relative_increase(self) -> float:
        """Special-TIB bytes as a fraction of baseline class-TIB bytes."""
        if self.class_tib_bytes == 0:
            return 0.0
        return self.special_tib_bytes / self.class_tib_bytes
