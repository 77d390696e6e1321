"""The session-oriented API: plan cache, external variables, cursors.

Covers the client layer of :mod:`repro.core.session`: plan-cache hit/miss
accounting and invalidation across ``load``/``drop``, external-variable
binding (declared and implicit, plus missing/extra binding errors),
cursor semantics (partial fetch, early close, iteration after close,
lazy serialization), resource-limit enforcement on the milestone-1
evaluator, and byte-equivalence of the session path with the old
one-shot facade on the full correctness suite.
"""

import pytest

from repro.errors import (
    BindingError,
    CursorClosedError,
    ResourceLimitExceeded,
    XQSyntaxError,
)
from repro.workloads.handmade import FIGURE2_XML
from repro.workloads.queries import CORRECTNESS_QUERIES
from repro.xmlkit.dom import Text
from repro.xq.parser import parse_program, parse_query

PARAM_QUERY = (
    "declare variable $who external; "
    "for $n in //name return "
    'if (some $t in $n/text() satisfies $t = $who) then $n else ()')


class TestProlog:
    def test_declared_externals_parsed(self):
        program = parse_program(PARAM_QUERY)
        assert program.externals == ("who",)
        assert program.required_variables() == frozenset({"who"})

    def test_multiple_declarations(self):
        program = parse_program(
            "declare variable $a external; "
            "declare variable $b external; //name")
        assert program.externals == ("a", "b")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(XQSyntaxError):
            parse_program("declare variable $a external; "
                          "declare variable $a external; //name")

    def test_implicit_external_is_free_variable(self):
        program = parse_program(
            "for $n in //name return "
            "if (some $t in $n/text() satisfies $t = $who) "
            "then $n else ()")
        assert program.externals == ()
        assert program.required_variables() == frozenset({"who"})

    def test_parse_query_still_returns_bare_ast(self):
        ast = parse_query(PARAM_QUERY)
        assert ast == parse_program(PARAM_QUERY).body

    def test_programs_are_hashable_cache_keys(self):
        a = parse_program(PARAM_QUERY)
        b = parse_program(PARAM_QUERY)
        assert a == b and hash(a) == hash(b)


class TestPlanCache:
    def test_repeated_prepare_hits(self, fig2):
        session = fig2.session()
        first = session.prepare("fig2", "//name")
        second = session.prepare("fig2", "//name")
        assert not first.from_cache
        assert second.from_cache
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_equivalent_text_shares_plan(self, fig2):
        """Textually different queries with equal core ASTs share a plan."""
        session = fig2.session()
        session.prepare("fig2", "//name")
        prepared = session.prepare("fig2", "  //name  (: same query :)")
        assert prepared.from_cache

    def test_profiles_cached_separately(self, fig2):
        session = fig2.session()
        session.prepare("fig2", "//name", profile="m4")
        prepared = session.prepare("fig2", "//name", profile="m2")
        assert not prepared.from_cache

    def test_load_invalidates(self, fig2):
        session = fig2.session()
        session.prepare("fig2", "//name")
        fig2.load("fig2", xml="<journal><name>Zoe</name></journal>")
        prepared = session.prepare("fig2", "//name")
        assert not prepared.from_cache
        assert prepared.query() == "<name>Zoe</name>"

    def test_drop_and_reload_invalidates(self, fig2):
        session = fig2.session()
        session.prepare("fig2", "//name")
        fig2.drop("fig2")
        fig2.load("fig2", xml=FIGURE2_XML)
        assert not session.prepare("fig2", "//name").from_cache

    def test_cache_shared_across_sessions_is_not(self, fig2):
        """Each session owns its cache (like a DBMS connection)."""
        first = fig2.session()
        second = fig2.session()
        first.prepare("fig2", "//name")
        assert not second.prepare("fig2", "//name").from_cache

    def test_capacity_evicts_lru(self, fig2):
        session = fig2.session(plan_cache_capacity=2)
        session.prepare("fig2", "//name")
        session.prepare("fig2", "//title")
        session.prepare("fig2", "//authors")  # evicts //name
        assert session.cache_info().size == 2
        assert not session.prepare("fig2", "//name").from_cache

    def test_dead_generations_do_not_crowd_out_live_plans(self, loaded):
        """Every update strands the updated document's plans under an
        unreachable version; they must not sit in the LRU until they
        push out another document's still-valid plans."""
        statements = ["//title", "//author", "//year"]
        session = loaded.session(plan_cache_capacity=8)
        untouched = session.prepare("treebank", "//NP")
        loaded.update("dblp",
                      "insert node <soak>0</soak> as first into /dblp")
        for round_ in range(10):
            loaded.update("dblp", "replace value of node "
                          f'/dblp/soak/text() with "{round_}"')
            for statement in statements:
                session.prepare("dblp", statement)
            assert session.cache_info().size <= 2 * len(statements) + 1
        hit = session.prepare("treebank", "//NP")
        assert hit.from_cache and hit.compiled is untouched.compiled
        # The previous generation survives one bump (a reader that
        # overlaps an update keeps its plans), older ones do not.
        versions = {key[3] for key in session._cache._entries
                    if key[0] == "dblp"}
        current = loaded.catalog_version("dblp")
        assert versions == {current - 1, current}
        loaded.update("dblp",
                      'replace value of node /dblp/soak/text() with "x"')
        session.prepare("dblp", statements[0])
        versions = {key[3] for key in session._cache._entries
                    if key[0] == "dblp"}
        assert versions == {current, current + 1}

    def test_query_reuses_plan(self, fig2):
        session = fig2.session()
        assert session.query("fig2", "//name") == \
            "<name>Ana</name><name>Bob</name>"
        session.query("fig2", "//name")
        assert session.cache_info().hits >= 1


class TestStaleEngineRegression:
    def test_reload_refreshes_results_on_every_profile(self, fig2):
        """``load`` over a loaded name replaces it and drops cached
        engines — previously only ``drop`` invalidated, so a cached
        engine (and the m1 DOM) could serve the old document."""
        for profile in ("m1", "m2", "m3", "m4"):
            assert "Ana" in fig2.query("fig2", "//name", profile=profile)
        fig2.load("fig2", xml="<journal><name>Zoe</name></journal>")
        for profile in ("m1", "m2", "m3", "m4"):
            assert fig2.query("fig2", "//name", profile=profile) == \
                "<name>Zoe</name>", profile

    def test_reload_updates_statistics(self, fig2):
        fig2.load("fig2", xml="<journal><name>Zoe</name></journal>")
        assert fig2.statistics("fig2").label_counts["name"] == 1

    def test_failed_reload_preserves_old_document(self, fig2):
        """A malformed replacement must not destroy the loaded document."""
        from repro.errors import XmlError

        with pytest.raises(XmlError):
            fig2.load("fig2", xml="<journal><oops")
        assert "fig2" in fig2.documents()
        assert fig2.query("fig2", "//name") == \
            "<name>Ana</name><name>Bob</name>"

    @pytest.mark.parametrize("xml", [
        "<a><b>x</b>", "<a>&#xD800;</a>", "<a k='&#0;'/>"])
    def test_failed_first_load_leaves_no_phantom_document(self, fig2, xml):
        """Shredding validates the whole input before any tree exists:
        a failed load of a *fresh* name registers nothing."""
        from repro.errors import XmlError
        from repro.xasr import schema

        catalog = fig2.db.list_names()
        with pytest.raises(XmlError):
            fig2.load("fresh", xml=xml)
        assert fig2.documents() == ["fig2"]
        assert fig2.db.list_names() == catalog
        assert not fig2.db.exists(schema.table_name("fresh"))
        fig2.load("fresh", xml="<a><b>x</b></a>")
        assert fig2.query("fresh", "//b") == "<b>x</b>"

    def test_non_char_replacement_preserves_old_document(self, fig2):
        from repro.errors import XmlError

        with pytest.raises(XmlError):
            fig2.load("fig2", xml="<journal>&#xFFFE;</journal>")
        assert fig2.query("fig2", "//name") == \
            "<name>Ana</name><name>Bob</name>"

    def test_load_tokenises_its_input_exactly_once(self, fig2,
                                                   monkeypatch):
        """A replacement used to parse twice (validate, then load)."""
        from repro.xasr import loader

        runs = []
        tokenize = loader.iterparse
        monkeypatch.setattr(
            loader, "iterparse",
            lambda text: runs.append(text) or tokenize(text))
        fig2.load("other", xml="<a>first</a>")
        assert len(runs) == 1
        fig2.load("other", xml="<a>second</a>")  # a replacement
        assert len(runs) == 2
        assert fig2.query("other", "/a") == "<a>second</a>"

    def test_held_prepared_query_sees_reload(self, fig2):
        """A PreparedQuery prepared before a reload re-prepares itself
        instead of serving results from the replaced document."""
        prepared = fig2.session().prepare("fig2", "//name")
        assert prepared.query() == "<name>Ana</name><name>Bob</name>"
        fig2.load("fig2", xml="<journal><name>Zoe</name></journal>")
        assert prepared.query() == "<name>Zoe</name>"

    def test_held_prepared_query_errors_after_drop(self, fig2):
        from repro.errors import CatalogError

        prepared = fig2.session().prepare("fig2", "//name")
        fig2.drop("fig2")
        with pytest.raises(CatalogError):
            prepared.execute()

    def test_catalog_version_bumps(self, fig2):
        before = fig2.catalog_version("fig2")
        fig2.load("fig2", xml=FIGURE2_XML)  # replace = drop + load
        after_reload = fig2.catalog_version("fig2")
        assert after_reload > before
        fig2.drop("fig2")
        assert fig2.catalog_version("fig2") > after_reload


class TestExternalVariables:
    @pytest.mark.parametrize("profile", ["m1", "m2", "m3", "m4",
                                         "engine-2", "engine-5"])
    def test_declared_external_on_every_engine(self, fig2, profile):
        session = fig2.session(profile=profile)
        prepared = session.prepare("fig2", PARAM_QUERY)
        assert prepared.query(bindings={"who": "Ana"}) == \
            "<name>Ana</name>"
        assert prepared.query(bindings={"who": "Bob"}) == \
            "<name>Bob</name>"
        assert prepared.query(bindings={"who": "Eve"}) == ""

    def test_implicit_binding_without_declaration(self, fig2):
        session = fig2.session()
        prepared = session.prepare(
            "fig2",
            "for $n in //name return "
            "if (some $t in $n/text() satisfies $t = $who) "
            "then $n else ()")
        assert prepared.query(bindings={"who": "Bob"}) == \
            "<name>Bob</name>"

    def test_text_node_binding_accepted(self, fig2):
        prepared = fig2.session().prepare("fig2", PARAM_QUERY)
        assert prepared.query(bindings={"who": Text("Ana")}) == \
            "<name>Ana</name>"

    def test_external_output_serializes_as_text(self, fig2):
        prepared = fig2.session().prepare(
            "fig2", "declare variable $w external; <echo>{ $w }</echo>")
        assert prepared.query(bindings={"w": "hello"}) == \
            "<echo>hello</echo>"

    def test_missing_binding_rejected(self, fig2):
        prepared = fig2.session().prepare("fig2", PARAM_QUERY)
        with pytest.raises(BindingError, match=r"\$who"):
            prepared.execute()

    def test_extra_binding_rejected(self, fig2):
        prepared = fig2.session().prepare("fig2", "//name")
        with pytest.raises(BindingError, match=r"\$ghost"):
            prepared.execute(bindings={"ghost": "boo"})

    def test_non_text_binding_rejected(self, fig2):
        prepared = fig2.session().prepare("fig2", PARAM_QUERY)
        with pytest.raises(BindingError, match="string or a text node"):
            prepared.execute(bindings={"who": 42})

    def test_var_eq_var_between_external_and_bound(self, loaded):
        """An external compared against a for-bound text variable runs as
        a residual predicate on the algebraic engines."""
        query = ("declare variable $y external; "
                 "for $x in //article return "
                 "if (some $t in $x/year/text() satisfies $t = $y) "
                 "then <m/> else ()")
        session = loaded.session()
        results = {}
        for profile in ("m1", "m2", "m4"):
            prepared = session.prepare("dblp", query, profile=profile)
            results[profile] = prepared.query(bindings={"y": "2000"})
        assert results["m1"] == results["m2"] == results["m4"]

    def test_step_from_external_text_is_empty(self, fig2):
        """Navigation from a text-valued parameter yields nothing on
        every engine (text nodes have no children)."""
        query = ("declare variable $w external; "
                 "for $c in $w/child::* return $c")
        session = fig2.session()
        for profile in ("m1", "m2", "m4"):
            prepared = session.prepare("fig2", query, profile=profile)
            assert prepared.query(bindings={"w": "x"}) == "", profile


class TestCursor:
    def test_partial_fetch(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        first = cursor.fetch(1)
        assert [node.name for node in first] == ["name"]
        rest = cursor.fetchall()
        assert len(rest) == 1
        cursor.close()

    def test_fetch_past_end_returns_short_batch(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        assert len(cursor.fetch(10)) == 2
        assert cursor.fetch(10) == []

    def test_fetch_zero_consumes_nothing(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        assert cursor.fetch(0) == []
        assert len(cursor.fetchall()) == 2

    def test_iteration(self, fig2):
        with fig2.session().prepare("fig2", "//name").execute() as cursor:
            names = [node.name for node in cursor]
        assert names == ["name", "name"]

    def test_iteration_after_close_raises(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        cursor.close()
        with pytest.raises(CursorClosedError):
            next(cursor)
        with pytest.raises(CursorClosedError):
            cursor.fetch(1)
        with pytest.raises(CursorClosedError):
            cursor.fetchall()
        with pytest.raises(CursorClosedError):
            cursor.serialize()

    def test_close_is_idempotent(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        cursor.close()
        cursor.close()

    def test_early_close_after_partial_consumption(self, fig2):
        """Closing a half-read cursor shuts the pipeline down cleanly;
        a new execution of the same prepared query starts fresh."""
        prepared = fig2.session().prepare("fig2", "//name")
        cursor = prepared.execute()
        cursor.fetch(1)
        cursor.close()
        assert prepared.query() == "<name>Ana</name><name>Bob</name>"

    def test_serialize_streams_remaining(self, fig2):
        cursor = fig2.session().prepare("fig2", "//name").execute()
        cursor.fetch(1)
        assert cursor.serialize() == "<name>Bob</name>"

    def test_context_manager_closes(self, fig2):
        with fig2.session().prepare("fig2", "//name").execute() as cursor:
            cursor.fetch(1)
        with pytest.raises(CursorClosedError):
            next(cursor)

    @pytest.mark.parametrize("profile", ["m3", "m4"])
    def test_interleaved_cursors_are_independent(self, loaded, profile):
        """Two open cursors from one prepared query never share
        materialised plan state: interleaving their consumption yields
        the same results as running each alone."""
        query = CORRECTNESS_QUERIES["q10-strict-merge"]
        expected = loaded.query("dblp", query, profile=profile)
        prepared = loaded.session(profile=profile).prepare("dblp", query)
        first = prepared.execute()
        second = prepared.execute()
        from_first, from_second = [], []
        while True:
            batch_a = first.fetch(1)
            batch_b = second.fetch(1)
            from_first.extend(batch_a)
            from_second.extend(batch_b)
            if not batch_a and not batch_b:
                break
        from repro.xmlkit.serializer import serialize

        assert "".join(serialize(n) for n in from_first) == expected
        assert "".join(serialize(n) for n in from_second) == expected

    def test_streaming_is_lazy(self, fig2):
        """The cursor yields without materialising the full result: a
        huge nested cross-product query produces its first row fast."""
        query = ("for $a in //* return for $b in //* return "
                 "for $c in //* return <t/>")
        with fig2.session().prepare(
                "fig2", query, profile="m2").execute() as cursor:
            assert cursor.fetch(1)[0].name == "t"


class TestResourceLimits:
    def test_m1_time_limit_enforced(self, loaded):
        query = ("for $x in //author return for $y in //author return "
                 "for $z in //author return <t/>")
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            loaded.query("dblp", query, profile="m1", time_limit=0.01)
        assert excinfo.value.kind == "time"

    def test_m1_memory_budget_enforced(self, loaded):
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            loaded.query("dblp", "<out>{ //article }</out>", profile="m1",
                         memory_budget=1024)
        assert excinfo.value.kind == "memory"

    @pytest.mark.parametrize("profile", ["m1", "m2", "m4"])
    def test_all_evaluator_kinds_raise_on_deadline(self, loaded, profile):
        query = ("for $x in //author return for $y in //author return "
                 "for $z in //author return <t/>")
        with pytest.raises(ResourceLimitExceeded):
            loaded.query("dblp", query, profile=profile, time_limit=0.0)

    def test_session_default_limits_apply(self, loaded):
        session = loaded.session(profile="m2", time_limit=0.0)
        query = ("for $x in //author return for $y in //author return "
                 "<t/>")
        with pytest.raises(ResourceLimitExceeded):
            session.query("dblp", query)

    def test_per_execute_override_beats_session_default(self, fig2):
        session = fig2.session(time_limit=0.0)
        prepared = session.prepare("fig2", "//name")
        assert prepared.query(time_limit=None) == \
            "<name>Ana</name><name>Bob</name>"


class TestExplainReport:
    def test_str_matches_facade_text(self, fig2):
        report = fig2.session().explain("fig2", "//name")
        assert str(report) == fig2.explain("fig2", "//name")

    def test_structured_fields(self, fig2):
        session = fig2.session()
        report = session.explain("fig2", "//name")
        assert report.profile == "m4"
        assert report.evaluator == "algebraic"
        assert report.tpm is not None
        assert len(report.plans) == 1
        assert report.plans[0].vartuple
        assert report.estimated_cost > 0
        assert not report.cache_hit

    def test_cache_hit_reported(self, fig2):
        session = fig2.session()
        session.prepare("fig2", "//name")
        assert session.explain("fig2", "//name").cache_hit

    def test_non_algebraic_report(self, fig2):
        report = fig2.session().explain("fig2", "//name", profile="m2")
        assert report.tpm is None and report.plans == ()
        assert "navigational" in str(report)


class TestFacadeEquivalence:
    @pytest.mark.parametrize("profile", ["m2", "m4"])
    def test_session_matches_facade_on_workload(self, loaded, profile):
        session = loaded.session(profile=profile)
        for name, xq in CORRECTNESS_QUERIES.items():
            expected = loaded.query("dblp", xq, profile=profile)
            assert session.query("dblp", xq) == expected, name

    def test_execute_returns_same_nodes_as_facade(self, fig2):
        facade = [node.name for node in fig2.execute("fig2", "//name")]
        session = [node.name
                   for node in fig2.session().execute("fig2", "//name")]
        assert facade == session
