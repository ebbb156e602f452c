"""Shared test utilities."""

from __future__ import annotations

from typing import Any

from repro import AdaptiveConfig, VM, compile_source
from repro.mutation import MutationPlan, build_mutation_plan

#: Promote aggressively so small test programs reach opt2: on a
#: method's second call, or 16 back-edges into its first (mid-loop, so
#: OSR-on runs really transfer frames).
AGGRESSIVE = AdaptiveConfig(promote_ticks=32)
#: Interpreter only.
INTERP_ONLY = AdaptiveConfig(enabled=False)


def run_source(
    source: str,
    adaptive: AdaptiveConfig | None = None,
    plan: MutationPlan | None = None,
    entry_class: str = "Main",
    entry_method: str = "main",
    seed: int = 42,
) -> str:
    """Compile and run; returns program output."""
    unit = compile_source(
        source, entry_class=entry_class, entry_method=entry_method
    )
    vm = VM(
        unit,
        mutation_plan=plan,
        adaptive_config=adaptive or INTERP_ONLY,
        seed=seed,
    )
    return vm.run().output


def run_vm(
    source: str,
    adaptive: AdaptiveConfig | None = None,
    plan: MutationPlan | None = None,
    seed: int = 42,
) -> VM:
    """Compile, run, and return the VM for inspection."""
    unit = compile_source(source)
    vm = VM(
        unit,
        mutation_plan=plan,
        adaptive_config=adaptive or INTERP_ONLY,
        seed=seed,
    )
    vm.run()
    return vm


def dequicken_all(vm: VM) -> VM:
    """Run every method's pristine bytecode through the one interpreter:
    the translation-validation downgrade (``Quickener.dequicken``)
    applied to every method.  Returns ``vm``."""
    for rm in vm.all_runtime_methods():
        vm.quickener.dequicken(rm)
    return vm


def assert_all_tiers_agree(source: str, seed: int = 42) -> str:
    """Run on opt0-only and aggressive-opt2 configs and assert
    identical output; returns the common output."""
    expected = run_source(source, INTERP_ONLY, seed=seed)
    opt2 = run_source(source, AGGRESSIVE, seed=seed)
    assert opt2 == expected, f"opt2 diverged:\n{opt2!r}\nvs\n{expected!r}"
    return expected


def assert_mutation_equivalent(source: str, seed: int = 42) -> str:
    """Build a plan offline and assert mutation-on == mutation-off."""
    plan = build_mutation_plan(source, seed=seed)
    off = run_source(source, AGGRESSIVE, seed=seed)
    on = run_source(source, AGGRESSIVE, plan=plan, seed=seed)
    assert on == off, f"mutation changed output:\n{on!r}\nvs\n{off!r}"
    return on


def wrap_main(body: str, prelude: str = "") -> str:
    """Wrap statements into a minimal Main class."""
    return f"""
{prelude}
class Main {{
    static void main() {{
{body}
    }}
}}
"""
