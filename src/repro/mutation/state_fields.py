"""State-field derivation — the EQ1 static analysis (paper §3.1).

A field is a *state field* of a hot class when its value plausibly
controls the object's behavior.  The paper's assumptions, implemented
here:

1. state fields tend to be used in **branches** (a field load whose
   value taints a conditional-branch condition);
2. the use must occur in a **hot** method to matter;
3. assignments should occur in **cold** code (otherwise knowing the
   state has no stable payoff) — relaxed when every assignment stores
   one identical constant.

Each field's importance is scored by EQ1::

    V = sum_i Li * Hi  -  R * sum_j lj * hj

where ``Li``/``lj`` are loop nesting levels of the use/assignment sites
(biased by +1 so top-level sites in hot methods still count) and
``Hi``/``hj`` are the containing methods' hotness shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bytecode.classfile import MethodInfo, ProgramUnit
from repro.bytecode.instructions import Instr
from repro.mutation.plan import MutationConfig, StateFieldSpec
from repro.bytecode.stacksim import StackEvent, SymValue, walk_method
from repro.opt.bytecode_cfg import BytecodeCFG


@dataclass
class FieldUsage:
    """Accumulated EQ1 terms for one field."""

    branch_score: float = 0.0
    assign_score: float = 0.0
    assigned_constants: set = field(default_factory=set)
    assigned_nonconstant: bool = False
    use_sites: int = 0
    assign_sites: int = 0

    def score(self, config: MutationConfig) -> float:
        penalty = self.assign_score
        if not self.assigned_nonconstant and len(self.assigned_constants) <= 1:
            # All assignments store one identical constant: the paper's
            # relaxation of assumption 3.
            penalty = 0.0
        return self.branch_score - config.R * penalty


class _Collector(StackEvent):
    """Per-method event collector feeding the usage table."""

    def __init__(
        self,
        usage: dict[str, FieldUsage],
        cfg: BytecodeCFG,
        hotness: float,
        assign_weight: float = 1.0,
    ) -> None:
        self.usage = usage
        self.cfg = cfg
        self.hotness = hotness
        self.assign_weight = assign_weight

    def _depth(self, index: int) -> float:
        return self.cfg.instr_loop_depth(index) + 1.0

    def on_branch(self, index: int, instr: Instr, cond: SymValue) -> None:
        weight = self._depth(index) * self.hotness
        for key in cond.taint:
            entry = self.usage.setdefault(key, FieldUsage())
            entry.branch_score += weight
            entry.use_sites += 1

    def _record_assign(self, index: int, key: str, value: SymValue) -> None:
        entry = self.usage.setdefault(key, FieldUsage())
        entry.assign_score += (
            self._depth(index) * self.hotness * self.assign_weight
        )
        entry.assign_sites += 1
        if value.kind[0] == "const":
            entry.assigned_constants.add(value.kind[1])
        else:
            entry.assigned_nonconstant = True

    def on_putfield(self, index, instr, receiver, value) -> None:
        cls_name, field_name = instr.arg
        self._record_assign(index, f"{cls_name}.{field_name}", value)

    def on_putstatic(self, index, instr, value) -> None:
        cls_name, field_name = instr.arg
        self._record_assign(index, f"{cls_name}.{field_name}", value)


def collect_field_usage(
    unit: ProgramUnit,
    hotness_by_method: dict[str, float],
    config: MutationConfig | None = None,
) -> dict[str, FieldUsage]:
    """Walk every concrete method, accumulating EQ1 terms per field key.

    ``hotness_by_method``: qualified name -> tick share in [0, 1].
    Methods absent from the map are cold (hotness 0) — their branch uses
    contribute nothing but their assignments still penalize with a small
    epsilon so constant-thrashing in cold code isn't free.  Constructor
    assignments are discounted by ``config.ctor_assign_weight``.
    """
    config = config or MutationConfig()
    usage: dict[str, FieldUsage] = {}
    cold_epsilon = 1e-6
    for method in unit.all_methods():
        if method.is_abstract or not method.code:
            continue
        hotness = hotness_by_method.get(
            method.qualified_name, cold_epsilon
        )
        assign_weight = 1.0
        if method.is_constructor or method.name == "<clinit>":
            assign_weight = config.ctor_assign_weight
        cfg = BytecodeCFG(method)
        walk_method(
            method, _Collector(usage, cfg, hotness, assign_weight),
            unit=unit,
        )
    return usage


def _field_key_to_spec(
    unit: ProgramUnit, key: str, score: float
) -> StateFieldSpec | None:
    cls_name, _, field_name = key.rpartition(".")
    finfo = unit.lookup_field(cls_name, field_name)
    if finfo is None:
        return None
    return StateFieldSpec(
        declaring_class=finfo.declaring_class,
        field_name=finfo.name,
        is_static=finfo.is_static,
        score=score,
    )


def derive_state_fields(
    unit: ProgramUnit,
    hot_classes: set[str],
    hotness_by_method: dict[str, float],
    config: MutationConfig | None = None,
) -> dict[str, list[StateFieldSpec]]:
    """EQ1 over the whole program; returns hot class -> state fields.

    A field qualifies for a hot class when it is declared by the class
    or one of its superclasses (paper §3: "The fields can be declared by
    a class itself or a class's parent classes"), scores above the
    threshold, and has a small discrete type.
    """
    config = config or MutationConfig()
    usage = collect_field_usage(unit, hotness_by_method, config)
    specs: dict[str, StateFieldSpec] = {}
    for key, entry in usage.items():
        score = entry.score(config)
        if score < config.min_state_score or entry.use_sites == 0:
            continue
        spec = _field_key_to_spec(unit, key, score)
        if spec is None:
            continue
        finfo = unit.lookup_field(spec.declaring_class, spec.field_name)
        if str(finfo.type) not in config.state_field_types:
            continue
        specs[key] = spec

    out: dict[str, list[StateFieldSpec]] = {}
    for cls_name in sorted(hot_classes):
        fields_for_class = []
        for spec in specs.values():
            if spec.declaring_class in set(unit.supertypes(cls_name)):
                fields_for_class.append(spec)
        if fields_for_class:
            fields_for_class.sort(key=lambda s: (-s.score, s.key))
            out[cls_name] = fields_for_class
    return out
