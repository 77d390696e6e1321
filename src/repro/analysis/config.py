"""The declared lock hierarchy, checked against the code it describes.

This is the configuration RL001 (lock order) enforces: every lock that
participates in cross-lock nesting is declared here with a *rank*, and
any ``with`` statement that acquires a lower-ranked (outer) lock while
lexically inside a higher-ranked one is a deadlock-shaped ordering
violation.  Equal ranks are ignored (re-entrant re-acquisition of an
RLock, or two instances at the same level that are never nested by
design).

The ranks encode the order the code *actually* takes, top of the stack
first (see ``docs/static-analysis.md`` for the narrative version):

1.  shard mediator lock — never held across calls into lower layers
2.  QueryServer lifecycle lock, then its stats lock
3.  document latch (shared for reads, exclusive for index builds)
4.  catalog lock (``XmlDbms._lock``), then the engine-cache lock
5.  storage transaction lock, then the catalog-tree ``Database`` lock
6.  buffer-pool mutex
7.  pager I/O mutex

The declaration is *checked*: :func:`validate_hierarchy` fails the run
when a declared site no longer matches any acquisition in the scanned
tree, so a renamed lock cannot silently drop out of enforcement.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.analysis.model import Finding


@dataclass(frozen=True)
class LockSite:
    """One declared lock: a rank plus a matcher over ``with`` items.

    ``home`` is the path suffix of the module that *defines* the lock;
    :func:`validate_hierarchy` only judges a declaration when its home
    module is part of the run, so analyzing a subtree does not fail
    every declaration living elsewhere.
    """

    name: str
    rank: int
    matches: Callable[[ast.expr, str, str], bool]
    home: str


def _is_self_attr(expr: ast.expr, attr: str) -> bool:
    return (isinstance(expr, ast.Attribute) and expr.attr == attr
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self")


def _attr_lock(module: str, cls: str, attr: str):
    """Matcher for ``with self.<attr>:`` inside one class of one file."""
    def matches(expr: ast.expr, path: str, classname: str) -> bool:
        return (path.endswith(module) and classname == cls
                and _is_self_attr(expr, attr))
    return matches


def _latch_call(expr: ast.expr) -> Optional[ast.expr]:
    """The receiver of ``<recv>.shared()`` / ``<recv>.exclusive()``."""
    if (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("shared", "exclusive")):
        return expr.func.value
    return None


def _document_latch(expr: ast.expr, path: str, classname: str) -> bool:
    receiver = _latch_call(expr)
    return (receiver is not None and isinstance(receiver, ast.Call)
            and isinstance(receiver.func, (ast.Attribute, ast.Name))
            and (receiver.func.attr if isinstance(receiver.func,
                                                  ast.Attribute)
                 else receiver.func.id) == "document_latch")


LOCK_HIERARCHY = (
    LockSite("shard mediator lock", 10,
             _attr_lock("shard/mediator.py", "ShardedServer", "_lock"),
             home="shard/mediator.py"),
    LockSite("query-server lifecycle lock", 20,
             _attr_lock("core/server.py", "QueryServer",
                        "_lifecycle_lock"),
             home="core/server.py"),
    LockSite("query-server stats lock", 30,
             _attr_lock("core/server.py", "QueryServer", "_stats_lock"),
             home="core/server.py"),
    LockSite("document latch", 40, _document_latch,
             home="core/dbms.py"),
    LockSite("catalog lock", 50,
             _attr_lock("core/dbms.py", "XmlDbms", "_lock"),
             home="core/dbms.py"),
    LockSite("engine-cache lock", 55,
             _attr_lock("core/dbms.py", "XmlDbms", "_engine_lock"),
             home="core/dbms.py"),
    LockSite("storage transaction lock", 60,
             _attr_lock("storage/db.py", "Database", "_txn_lock"),
             home="storage/db.py"),
    LockSite("storage catalog lock", 62,
             _attr_lock("storage/db.py", "Database", "_lock"),
             home="storage/db.py"),
    LockSite("buffer-pool mutex", 80,
             _attr_lock("storage/buffer.py", "BufferPool", "_lock"),
             home="storage/buffer.py"),
    LockSite("pager I/O mutex", 90,
             _attr_lock("storage/pager.py", "Pager", "_lock"),
             home="storage/pager.py"),
)


def match_lock(expr: ast.expr, path: str,
               classname: str) -> Optional[LockSite]:
    """The declared site a ``with`` expression acquires, if any."""
    for site in LOCK_HIERARCHY:
        if site.matches(expr, path, classname):
            return site
    return None


def validate_hierarchy(modules: Iterable) -> List[Finding]:
    """Check every declared lock still matches a real acquisition.

    Sites whose home module is not part of this run are skipped
    (analyzing a subtree must not fail every declaration living
    elsewhere); once the home module is loaded, zero matches means the
    code and the declaration have drifted apart.
    """
    from repro.analysis.scopes import enclosing_class, with_item_exprs

    modules = list(modules)
    seen = {site.name: 0 for site in LOCK_HIERARCHY}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            cls = enclosing_class(node)
            classname = cls.name if cls is not None else ""
            for item in node.items:
                for expr in with_item_exprs(item):
                    site = match_lock(expr, module.path, classname)
                    if site is not None:
                        seen[site.name] += 1
    findings: List[Finding] = []
    paths = {module.path for module in modules}
    for site in LOCK_HIERARCHY:
        if not any(path.endswith(site.home) for path in paths):
            continue
        if seen[site.name] == 0:
            findings.append(Finding(
                rule="RL000", path="src/repro/analysis/config.py",
                line=1, col=0, qualname="LOCK_HIERARCHY",
                message=f"declared lock site {site.name!r} matches no "
                        f"acquisition in the scanned tree; the config "
                        f"has drifted from the code",
                hint="update LOCK_HIERARCHY in "
                     "src/repro/analysis/config.py"))
    return findings
