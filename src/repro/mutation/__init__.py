"""Dynamic class hierarchy mutation — the paper's core contribution."""

from repro.bytecode.ctorfields import ctor_constant_fields
from repro.mutation.hot_states import derive_hot_states
from repro.mutation.lifetime import analyze_lifetime_constants
from repro.mutation.manager import MutationManager
from repro.mutation.online import OnlineMutationController
from repro.mutation.pipeline import build_mutation_plan
from repro.mutation.plan import (
    HotState,
    LifetimeConstInfo,
    MutableClassPlan,
    MutationConfig,
    MutationPlan,
    StateFieldSpec,
)
from repro.mutation.state_fields import (
    collect_field_usage,
    derive_state_fields,
)

__all__ = [
    "HotState",
    "LifetimeConstInfo",
    "MutableClassPlan",
    "MutationConfig",
    "MutationManager",
    "OnlineMutationController",
    "MutationPlan",
    "StateFieldSpec",
    "analyze_lifetime_constants",
    "build_mutation_plan",
    "collect_field_usage",
    "ctor_constant_fields",
    "derive_hot_states",
    "derive_state_fields",
]
