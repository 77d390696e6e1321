"""RL005 — opened resources are released on every path.

The codebase has a handful of open/close protocols whose leak modes
are silent and expensive: a memory-meter ``charge`` with no
``release`` inflates the budget until queries start spilling; a
``pin_snapshot`` without ``release_snapshot`` retains version chains
forever; an unclosed stream holds a shard connection or a worker
hostage.  For each configured pair, a call to the opener inside
a function must satisfy one of:

* it is the context expression of a ``with`` statement (the
  context-manager form carries its own release);
* its result escapes the function — returned, yielded, or stored into
  an attribute/subscript — transferring the release obligation to the
  new owner (who is checked wherever *it* closes);
* the function contains a matching closer call inside some ``finally``
  block (the classic open-then-try/finally shape).

Anything else is a leak on the exceptional path at minimum.  The rule
is lexical and per-function; protocols that intentionally retain (the
DOM evaluator's permanent node charges) carry reasoned suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Set

from repro.analysis.model import Finding
from repro.analysis.scopes import (
    iter_functions,
    own_nodes,
    parent_of,
    qualname_of,
)

RULE = "RL005"
TITLE = "resource-pairing"


@dataclass(frozen=True)
class Pair:
    """One open/close protocol: opener method name, closer names."""

    opener: str
    closers: tuple
    resource: str


PAIRS = (
    Pair("charge", ("release",), "memory-meter charge"),
    Pair("pin_snapshot", ("release_snapshot",), "pinned snapshot"),
    Pair("submit_stream", ("close",), "query stream"),
)


def _method_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _is_with_context(call: ast.Call) -> bool:
    """Is the call (part of) a ``with`` item's context expression?"""
    current: ast.AST = call
    parent = parent_of(current)
    while parent is not None and not isinstance(parent, ast.stmt):
        if (isinstance(parent, ast.withitem)
                and parent.context_expr is current):
            return True
        current = parent
        parent = parent_of(current)
    return (isinstance(parent, (ast.With, ast.AsyncWith))
            and any(item.context_expr is current
                    for item in parent.items))


def _result_names(call: ast.Call) -> Set[str]:
    """Local names the call's result lands in (via a plain Assign)."""
    parent = parent_of(call)
    if not (isinstance(parent, ast.Assign) and parent.value is call):
        return set()
    names: Set[str] = set()
    for target in parent.targets:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Tuple):
            names.update(element.id for element in target.elts
                         if isinstance(element, ast.Name))
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            names.add("*stored*")  # stored straight into an object
    return names


def _escapes(func: ast.AST, call: ast.Call) -> bool:
    """Does the opener's result leave the function's ownership?"""
    parent = parent_of(call)
    # Returned or yielded directly, or awaited into a return.
    current: ast.AST = call
    while parent is not None and not isinstance(parent, ast.stmt):
        current = parent
        parent = parent_of(current)
    if isinstance(parent, (ast.Return, ast.Expr)) and isinstance(
            getattr(parent, "value", None), (ast.Yield, ast.YieldFrom)):
        return True
    if isinstance(parent, ast.Return):
        return True
    names = _result_names(call)
    if "*stored*" in names:
        return True
    if not names:
        return False
    for node in own_nodes(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and any(
                    isinstance(sub, ast.Name) and sub.id in names
                    for sub in ast.walk(value)):
                return True
        if isinstance(node, ast.Assign) and any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in node.targets):
            if any(isinstance(sub, ast.Name) and sub.id in names
                   for sub in ast.walk(node.value)):
                return True
    return False


def _closer_in_finally(func: ast.AST, pair: Pair) -> bool:
    """Is some closer for the pair inside a ``finally`` in this scope?"""
    for node in own_nodes(func):
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if any(_method_call(sub, closer)
                       for closer in pair.closers):
                    return True
    return False


def check(modules: Iterable) -> List[Finding]:
    """Flag opener calls with no release path in their function."""
    findings: List[Finding] = []
    for module in modules:
        for func in iter_functions(module.tree):
            for pair in PAIRS:
                opens = [node for node in own_nodes(func)
                         if _method_call(node, pair.opener)]
                if not opens:
                    continue
                balanced = _closer_in_finally(func, pair)
                for call in opens:
                    if balanced or _is_with_context(call):
                        continue
                    if _escapes(func, call):
                        continue
                    closers = " / ".join(pair.closers)
                    findings.append(Finding(
                        rule=RULE, path=module.path,
                        line=call.lineno, col=call.col_offset,
                        qualname=qualname_of(call),
                        message=f"{pair.resource}: "
                                f"{pair.opener}() has no "
                                f"{closers}() on the error path",
                        hint="use try/finally or the context-manager "
                             "form, or store/return the resource so "
                             "its owner releases it"))
    return findings
