"""Rule registry for reprolint.

Each rule module exposes ``RULE`` (its id), ``TITLE`` and a
``check(modules) -> list[Finding]`` entry point; this package collects
them into :data:`ALL_RULES` in id order.  Suppressions are applied by
the caller (:func:`repro.analysis.analyze_modules`), not by the rules.
"""

from __future__ import annotations

from repro.analysis.rules import (
    guarded_by,
    lock_order,
    resource_pairing,
    wire_taxonomy,
)

#: ``(rule id, title, check callable)`` for every shipped rule.
ALL_RULES = tuple(
    (module.RULE, module.TITLE, module.check)
    for module in sorted(
        (lock_order, guarded_by, wire_taxonomy, resource_pairing),
        key=lambda module: module.RULE)
)

__all__ = ["ALL_RULES"]
