"""The complete rule registry: per-file rules + whole-program rules.

:mod:`repro.lint.rules` holds the per-file rules and the base classes;
the interprocedural rules live in :mod:`repro.lint.taint`,
:mod:`repro.lint.protocol`, :mod:`repro.lint.concurrency` and
:mod:`repro.lint.units`, which import from ``rules`` — so the combined
registry has to live above all of them to avoid an import cycle. The
engine and CLI import from here.
"""

from __future__ import annotations

from repro.lint.concurrency import (
    BlockingAsyncRule,
    ForkHygieneRule,
    PickleSafetyRule,
    ProcessLifecycleRule,
    SignalPathRule,
)
from repro.lint.protocol import (
    AtomicRenameRule,
    HandleLeakRule,
    SwallowedInterruptRule,
)
from repro.lint.rules import RULES, SUP01, ProjectRule, Rule
from repro.lint.taint import EscapedOrderRule, TransitiveAmbientRule
from repro.lint.units import (
    CallBoundaryRule,
    MagicConversionRule,
    MixedDimensionRule,
)

#: Per-file rules, in reporting order. EXC01 is module-local (a
#: handler either re-raises or it doesn't) even though it ships with
#: the protocol checker; ASY01 is module-local too (an ``async def``
#: either blocks or it doesn't).
FILE_RULES: tuple[Rule, ...] = (*RULES, SwallowedInterruptRule(),
                                BlockingAsyncRule())

#: Whole-program rules — these see the call graph.
PROJECT_RULES: tuple[ProjectRule, ...] = (
    TransitiveAmbientRule(),
    EscapedOrderRule(),
    AtomicRenameRule(),
    HandleLeakRule(),
    PickleSafetyRule(),
    ForkHygieneRule(),
    ProcessLifecycleRule(),
    SignalPathRule(),
    MixedDimensionRule(),
    CallBoundaryRule(),
    MagicConversionRule(),
)

#: Every rule id an ``allow[...]`` comment may name.
KNOWN_RULE_IDS: frozenset[str] = frozenset(
    {rule.rule_id for rule in FILE_RULES}
    | {rule.rule_id for rule in PROJECT_RULES}
    | {SUP01})
