"""Heap accounting.

JxVM does not implement a collector (Python's GC owns object lifetime);
what the reproduction needs from the memory system is *accounting*:
per-class allocation counts and modeled byte volumes, used by the
workload reports and to sanity-check that the SPECjbb2005 port really is
more allocation-heavy than SPECjbb2000 (paper §7.1).

One model: an object costs a header plus one machine word per instance
field.  Arrays are charged per element *width* — an ``int`` array
element is 4 modeled bytes, a ``boolean``/``byte`` element 1 — not a
flat machine word per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Modeled object header: TIB pointer + status word.
OBJECT_HEADER_BYTES = 16
WORD_BYTES = 8

#: Modeled array-element widths by element-type name; class references,
#: strings, arrays-of-arrays, and unknown types are one machine word.
ARRAY_ELEM_WIDTH_BYTES = {
    "int": 4,
    "boolean": 1,
    "byte": 1,
    "char": 2,
    "double": 8,
    "long": 8,
}


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass
class HeapStats:
    """Aggregate allocation statistics."""

    objects_allocated: int = 0
    arrays_allocated: int = 0
    #: Modeled object bytes: header + one word per instance field.
    object_bytes: int = 0
    array_bytes: int = 0
    per_class: dict[str, int] = field(default_factory=dict)
    per_class_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def bytes_allocated(self) -> int:
        """Total modeled allocation volume (objects + arrays)."""
        return self.object_bytes + self.array_bytes

    # The next three read the one model; they stay until the benchmark
    # (perfbench/episode.py) stops reading them.
    @property
    def declared_object_bytes(self) -> int:
        return self.object_bytes

    @property
    def shape_transitions(self) -> int:
        return 0

    def modeled_object_bytes(self) -> int:
        return self.object_bytes

    def record_object(self, class_name: str, num_fields: int) -> None:
        size_bytes = OBJECT_HEADER_BYTES + num_fields * WORD_BYTES
        self.objects_allocated += 1
        self.object_bytes += size_bytes
        self.per_class[class_name] = self.per_class.get(class_name, 0) + 1
        self.per_class_bytes[class_name] = (
            self.per_class_bytes.get(class_name, 0) + size_bytes
        )

    def record_array(self, length: int, elem_type: str | None = None) -> None:
        width = ARRAY_ELEM_WIDTH_BYTES.get(elem_type, WORD_BYTES)
        self.arrays_allocated += 1
        self.array_bytes += OBJECT_HEADER_BYTES + _align8(length * width)

    def top_classes(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most-allocated classes, descending."""
        return sorted(
            self.per_class.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    def top_classes_by_bytes(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` classes with the most modeled bytes, descending."""
        return sorted(
            self.per_class_bytes.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]
