"""Object layout hook, kept as a no-op.

JxVM has one object layout: the linker gives every instance field a
plain ``int`` slot in declared order, superclass fields first, and a
TIB swap never moves storage (paper §3.2.2; DESIGN decision 24).

:func:`install_shapes` stays only because the performance benchmark's
tracer (``perfbench/tracer.py``) wraps it by name; nothing in the VM
calls it.
"""

from __future__ import annotations

from typing import Any


def install_shapes(vm: Any, plan: Any) -> None:
    """Do nothing: field slots are the linker's, final at link time."""
