"""reprolint: every rule catches its seeded violation and passes the fix.

The claims under test, per layer:

* the loader extracts comments through the tokenizer (string literals
  that *look* like pragmas are ignored), parses well-formed
  suppressions, and reports malformed or reason-less ones as RL000
  findings that are never honoured;
* each rule (RL001, RL002, RL004, RL005) flags a minimal seeded violation and stays
  silent on the corrected twin of the same fixture;
* suppressions waive a finding on the same line or from the comment
  block directly above, and only for the named rule;
* fingerprints are stable under line movement, so the baseline survives
  unrelated edits; the baseline round-trips through save/load and
  ``compare`` reports both new findings and stale entries;
* the declared lock hierarchy is validated against the scanned tree
  (a declared site matching nothing is itself a finding);
* the real ``src/repro`` tree is clean — the analyzer's own acceptance
  criterion — and the CLI exit codes agree with that.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    ALL_RULES,
    analyze_modules,
    analyze_paths,
    load_source,
    repo_root,
)
from repro.analysis import baseline as baseline_io
from repro.analysis.__main__ import main as cli_main
from repro.analysis.config import LOCK_HIERARCHY, validate_hierarchy


def _findings(path, source, rules=None):
    return analyze_modules([load_source(path, source)], rules=rules)


def _rules_of(findings):
    return [finding.rule for finding in findings]


# -- loader: comments, pragmas, malformed suppressions ----------------------


def test_pragma_inside_string_literal_is_not_a_suppression():
    source = (
        "x = '# reprolint: disable=RL005 not a real pragma'\n"
    )
    module = load_source("src/repro/fake.py", source)
    assert module.suppressions == {}
    assert module.problems == []


def test_suppression_without_reason_is_an_rl000_finding():
    source = (
        "# reprolint: disable=RL005\n"
        "x = 1\n"
    )
    findings = _findings("src/repro/fake.py", source)
    assert _rules_of(findings) == ["RL000"]
    assert "no reason" in findings[0].message


def test_malformed_pragma_is_an_rl000_finding():
    source = (
        "# reprolint: disable-next=RL005 wrong directive\n"
        "x = 1\n"
    )
    findings = _findings("src/repro/fake.py", source)
    assert _rules_of(findings) == ["RL000"]
    assert "malformed" in findings[0].message


def test_unparseable_file_is_an_rl000_finding():
    findings = _findings("src/repro/fake.py", "def broken(:\n")
    assert _rules_of(findings) == ["RL000"]
    assert "does not parse" in findings[0].message


# -- RL001: lock order ------------------------------------------------------

_RL001_BAD = """
class XmlDbms:
    def create_index(self, document):
        with self._lock:
            with self.document_latch(document).exclusive():
                pass
"""

_RL001_GOOD = """
class XmlDbms:
    def create_index(self, document):
        with self.document_latch(document).exclusive():
            with self._lock:
                pass
"""


def test_rl001_flags_document_latch_inside_catalog_lock():
    # The fixture acquires the document latch (rank 40, outer) while
    # already holding the catalog lock (rank 50, inner) — inverted
    # against the declared order.
    bad = _findings("src/repro/core/dbms.py", _RL001_BAD,
                    rules=["RL001"])
    assert _rules_of(bad) == ["RL001"]
    assert "document latch" in bad[0].message
    assert "catalog lock" in bad[0].message


def test_rl001_passes_the_declared_order():
    good = _findings("src/repro/core/dbms.py", _RL001_GOOD,
                     rules=["RL001"])
    assert good == []


def test_rl001_ignores_equal_rank_reentry():
    source = (
        "class BufferPool:\n"
        "    def a(self):\n"
        "        with self._lock:\n"
        "            with self._lock:\n"
        "                pass\n"
    )
    findings = _findings("src/repro/storage/buffer.py", source,
                         rules=["RL001"])
    assert findings == []


def test_rl001_tracks_conditional_latch_expressions():
    # A latch taken via an IfExp —
    # ``with (l.exclusive() if x else l.shared()):`` — must be seen as
    # an acquisition in both arms.  Taking the query-server lifecycle
    # lock (rank 20) under the document latch (rank 40) is an inversion.
    source = (
        "class QueryServer:\n"
        "    def touch(self, dbms, name, exclusive):\n"
        "        with (dbms.document_latch(name).exclusive() if exclusive\n"
        "              else dbms.document_latch(name).shared()):\n"
        "            with self._lifecycle_lock:\n"
        "                pass\n"
    )
    findings = _findings("src/repro/core/server.py", source,
                         rules=["RL001"])
    assert _rules_of(findings) == ["RL001"]
    assert "lifecycle lock" in findings[0].message
    assert "document latch" in findings[0].message


# -- RL002: guarded-by ------------------------------------------------------

_RL002_BAD = """
import threading

class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._hits = 0

    def bump(self):
        self._hits += 1
"""

_RL002_GOOD = _RL002_BAD.replace(
    "    def bump(self):\n        self._hits += 1",
    "    def bump(self):\n        with self._lock:\n"
    "            self._hits += 1")


def test_rl002_flags_unguarded_access():
    findings = _findings("src/repro/fake.py", _RL002_BAD,
                         rules=["RL002"])
    assert _rules_of(findings) == ["RL002"]
    assert "self._hits" in findings[0].message
    assert findings[0].qualname == "Stats.bump"


def test_rl002_passes_guarded_access():
    assert _findings("src/repro/fake.py", _RL002_GOOD,
                     rules=["RL002"]) == []


def test_rl002_exempts_init_and_locked_suffix_methods():
    source = _RL002_BAD + (
        "\n"
        "    def reset_locked(self):\n"
        "        self._hits = 0\n"
    )
    findings = _findings("src/repro/fake.py", source, rules=["RL002"])
    # Only bump() is flagged; __init__ and reset_locked are exempt.
    assert [f.qualname for f in findings] == ["Stats.bump"]


def test_rl002_checks_closures_for_their_own_lock():
    # A closure runs after the method's lock is released, so holding
    # the lock at *definition* time does not guard the access inside.
    source = (
        "import threading\n"
        "class Stats:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        # guarded by: self._lock\n"
        "        self._hits = 0\n"
        "    def deferred(self):\n"
        "        with self._lock:\n"
        "            def later():\n"
        "                self._hits += 1\n"
        "            return later\n"
    )
    findings = _findings("src/repro/fake.py", source, rules=["RL002"])
    assert _rules_of(findings) == ["RL002"]


def test_rl002_accepts_doc_comment_annotation_form():
    source = _RL002_BAD.replace("# guarded by:", "#: guarded by:")
    findings = _findings("src/repro/fake.py", source, rules=["RL002"])
    assert _rules_of(findings) == ["RL002"]


# -- RL004: wire taxonomy ---------------------------------------------------

_ERRORS_PY = """
class ReproError(Exception):
    pass

class QueryError(ReproError):
    pass

class BrandNewError(ReproError):
    pass
"""

_PROTOCOL_PY = """
import enum

class MsgKind(enum.IntEnum):
    HELLO = 1
    EXECUTE = 2
    CANCEL = 3

WIRE_ERRORS = {cls.__name__: cls for cls in (QueryError,)}
"""

_SERVER_PY = """
class _Connection:
    def dispatch(self, kind):
        if kind == MsgKind.HELLO:
            return self.hello()
        if kind == MsgKind.EXECUTE:
            raise BrandNewError("boom")
"""


def _rl004_modules(server_source=_SERVER_PY):
    return [
        load_source("src/repro/errors.py", _ERRORS_PY),
        load_source("src/repro/net/protocol.py", _PROTOCOL_PY),
        load_source("src/repro/net/server.py", server_source),
    ]


def test_rl004_flags_unregistered_error_and_undispatched_kind():
    findings = analyze_modules(_rl004_modules(), rules=["RL004"])
    messages = " ".join(f.message for f in findings)
    assert "BrandNewError" in messages
    assert "WIRE_ERRORS" in messages
    assert "MsgKind.CANCEL" in messages


def test_rl004_passes_when_registered_and_dispatched():
    fixed_protocol = _PROTOCOL_PY.replace(
        "(QueryError,)", "(QueryError, BrandNewError)")
    fixed_server = _SERVER_PY.replace(
        'raise BrandNewError("boom")',
        'raise BrandNewError("boom")\n'
        '        if kind == MsgKind.CANCEL:\n'
        '            return self.cancel()')
    modules = [
        load_source("src/repro/errors.py", _ERRORS_PY),
        load_source("src/repro/net/protocol.py", fixed_protocol),
        load_source("src/repro/net/server.py", fixed_server),
    ]
    assert analyze_modules(modules, rules=["RL004"]) == []


def test_rl004_ignores_raises_outside_the_serving_path():
    modules = _rl004_modules(server_source="class _Connection: pass\n")
    modules.append(load_source(
        "src/repro/xq/eval.py",
        "def f():\n    raise BrandNewError('fine here')\n"))
    findings = analyze_modules(modules, rules=["RL004"])
    assert all(f.path != "src/repro/xq/eval.py" for f in findings)


# -- RL005: resource pairing ------------------------------------------------

_RL005_BAD = """
class Operator:
    def run(self, ctx):
        ctx.meter.charge(100)
        rows = list(self.child)
        ctx.meter.release(100)
        return rows
"""

_RL005_GOOD = """
class Operator:
    def run(self, ctx):
        ctx.meter.charge(100)
        try:
            return list(self.child)
        finally:
            ctx.meter.release(100)
"""


def test_rl005_flags_charge_without_finally():
    findings = _findings("src/repro/fake.py", _RL005_BAD,
                         rules=["RL005"])
    assert _rules_of(findings) == ["RL005"]
    assert "charge()" in findings[0].message


def test_rl005_passes_try_finally():
    assert _findings("src/repro/fake.py", _RL005_GOOD,
                     rules=["RL005"]) == []


def test_rl005_passes_with_statement_form():
    source = (
        "class Reader:\n"
        "    def read(self, pool):\n"
        "        with pool.pin_snapshot() as snap:\n"
        "            return snap.lsn\n"
    )
    assert _findings("src/repro/fake.py", source,
                     rules=["RL005"]) == []


def test_rl005_flags_unreleased_snapshot_pin():
    source = (
        "class Reader:\n"
        "    def read(self, pool):\n"
        "        snap = pool.pin_snapshot()\n"
        "        rows = pool.scan(snap)\n"
        "        return rows\n"
    )
    findings = _findings("src/repro/fake.py", source, rules=["RL005"])
    assert _rules_of(findings) == ["RL005"]
    assert "pin_snapshot" in findings[0].message


def test_rl005_passes_escaping_results():
    # Returning or storing the opened resource transfers ownership.
    source = (
        "class Factory:\n"
        "    def open_stream(self, server):\n"
        "        return server.submit_stream('doc', 'q')\n"
        "    def cache_stream(self, server):\n"
        "        stream = server.submit_stream('doc', 'q')\n"
        "        self.cursors['h'] = stream\n"
    )
    assert _findings("src/repro/fake.py", source,
                     rules=["RL005"]) == []


# -- suppressions -----------------------------------------------------------


def test_suppression_waives_the_named_rule_only():
    suppressed = _RL005_BAD.replace(
        "        ctx.meter.charge(100)",
        "        # reprolint: disable=RL005 released two lines down;\n"
        "        # the window is signal-free by design\n"
        "        ctx.meter.charge(100)")
    assert _findings("src/repro/fake.py", suppressed,
                     rules=["RL005"]) == []
    wrong_rule = _RL005_BAD.replace(
        "        ctx.meter.charge(100)",
        "        # reprolint: disable=RL001 wrong rule entirely\n"
        "        ctx.meter.charge(100)")
    assert _rules_of(_findings("src/repro/fake.py", wrong_rule,
                               rules=["RL005"])) == ["RL005"]


def test_suppression_on_the_finding_line_itself():
    suppressed = _RL005_BAD.replace(
        "ctx.meter.charge(100)",
        "ctx.meter.charge(100)  "
        "# reprolint: disable=RL005 intentionally unpaired in the test")
    assert _findings("src/repro/fake.py", suppressed,
                     rules=["RL005"]) == []


def test_reasonless_suppression_does_not_waive():
    suppressed = _RL005_BAD.replace(
        "        ctx.meter.charge(100)",
        "        # reprolint: disable=RL005\n"
        "        ctx.meter.charge(100)")
    findings = _findings("src/repro/fake.py", suppressed,
                         rules=["RL005"])
    # Both the original finding and the RL000 about the bad pragma.
    assert sorted(_rules_of(findings)) == ["RL000", "RL005"]


def test_multi_rule_suppression_covers_each_listed_rule():
    suppressed = _RL005_BAD.replace(
        "        ctx.meter.charge(100)",
        "        # reprolint: disable=RL001,RL005 both waived here\n"
        "        ctx.meter.charge(100)")
    assert _findings("src/repro/fake.py", suppressed,
                     rules=["RL005"]) == []


# -- fingerprints and the baseline ratchet ----------------------------------


def test_fingerprint_is_stable_under_line_movement():
    shifted = "\n\n\n" + _RL005_BAD
    original = _findings("src/repro/fake.py", _RL005_BAD,
                         rules=["RL005"])[0]
    moved = _findings("src/repro/fake.py", shifted,
                      rules=["RL005"])[0]
    assert original.line != moved.line
    assert original.fingerprint == moved.fingerprint


def test_baseline_round_trip_and_ratchet(tmp_path):
    findings = _findings("src/repro/fake.py", _RL005_BAD,
                         rules=["RL005"])
    path = tmp_path / "baseline.json"
    baseline_io.save(path, findings)
    entries = baseline_io.load(path)
    assert [e["fingerprint"] for e in entries] == [
        findings[0].fingerprint]
    # Baselined findings are neither new nor stale.
    new, stale = baseline_io.compare(findings, entries)
    assert new == [] and stale == []
    # A fixed finding turns its entry stale (the one-way ratchet).
    new, stale = baseline_io.compare([], entries)
    assert new == [] and len(stale) == 1
    # A fresh finding against an empty baseline is new.
    new, stale = baseline_io.compare(findings, [])
    assert len(new) == 1 and stale == []


def test_baseline_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(ValueError):
        baseline_io.load(path)


# -- hierarchy validation ---------------------------------------------------


def test_declared_hierarchy_matches_the_real_tree():
    # Running only the config validation over src/repro must report no
    # drift: every declared site matches a live acquisition.
    assert analyze_paths(rules=["RL000"]) == []


def test_validate_hierarchy_flags_a_dead_declaration():
    # The pager's home module with no lock acquisitions at all: its
    # declared site is reported as drifted, and only its.
    modules = [load_source("src/repro/storage/pager.py",
                           "class Pager:\n    pass\n")]
    findings = validate_hierarchy(modules)
    assert [f.rule for f in findings] == ["RL000"]
    assert "pager I/O mutex" in findings[0].message
    assert len(LOCK_HIERARCHY) == 10


def test_validate_hierarchy_skips_foreign_modules():
    # A module that is no declared site's home judges nothing.
    modules = [load_source("src/repro/xq/eval.py", "x = 1\n")]
    assert validate_hierarchy(modules) == []


# -- the real tree and the CLI ----------------------------------------------


def test_real_tree_is_clean():
    assert analyze_paths() == []


def test_rule_catalog_is_complete():
    assert [rule_id for rule_id, _, _ in ALL_RULES] == [
        "RL001", "RL002", "RL004", "RL005"]


def test_cli_clean_run_exits_zero(capsys):
    assert cli_main(["src/repro/analysis"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_baseline_contract(tmp_path, capsys):
    # The committed baseline must be tight against the real tree.
    assert cli_main(["--baseline", "analysis-baseline.json"]) == 0
    capsys.readouterr()
    # A stale entry (fabricated fingerprint) fails the run.
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({
        "version": 1,
        "findings": [{"fingerprint": "0" * 16, "rule": "RL005",
                      "path": "src/repro/fake.py",
                      "qualname": "gone", "message": "fixed long ago"}],
    }), encoding="utf-8")
    assert cli_main(["--baseline", str(stale)]) == 1
    out = capsys.readouterr().out
    assert "no longer reproduces" in out


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL004", "RL005"):
        assert rule_id in out


def test_cli_unknown_rule_id_is_a_usage_error(capsys):
    assert cli_main(["--rules", "NOPE", "src/repro/analysis"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_missing_target_is_a_usage_error(capsys):
    assert cli_main(["no/such/file.py"]) == 2
    assert "no such file or directory" in capsys.readouterr().err
