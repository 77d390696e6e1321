"""Property-based tests (hypothesis) on the core invariants.

* XML: serialize ∘ parse is the identity on generated trees;
* XASR: interval nesting invariants and full document reconstruction;
* B+-tree ≡ a sorted-dict model under random workloads;
* external sort ≡ ``sorted``;
* **engine equivalence**: random XQ queries over random documents give
  identical serialized results on the milestone-1 oracle, the
  navigational engine and the cost-based algebraic engine.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.record import decode_key, encode_key
from repro.xmlkit.dom import deep_equal
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import serialize

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_LABELS = ["a", "b", "c", "item", "name"]
_TEXTS = ["x", "yy", "hello world", "42", "<&>"]


@st.composite
def xml_trees(draw, max_depth=4):
    """Serialized random element trees."""

    def element(depth):
        label = draw(st.sampled_from(_LABELS))
        if depth >= max_depth:
            children = []
        else:
            children = draw(st.lists(
                st.one_of(st.just("text"), st.just("elem")),
                max_size=3))
        parts = [f"<{label}>"]
        for kind in children:
            if kind == "text":
                text = draw(st.sampled_from(_TEXTS))
                escaped = (text.replace("&", "&amp;")
                           .replace("<", "&lt;").replace(">", "&gt;"))
                parts.append(escaped)
            else:
                parts.append(element(depth + 1))
        parts.append(f"</{label}>")
        return "".join(parts)

    return element(0)


@st.composite
def xq_queries(draw, depth=0):
    """Random well-typed XQ queries (comparisons only on text())."""
    choices = ["path", "for", "if", "constr", "empty"]
    if depth >= 3:
        choices = ["path", "empty"]
    kind = draw(st.sampled_from(choices))
    label = draw(st.sampled_from(_LABELS))
    axis = draw(st.sampled_from(["/", "//"]))
    variables = [f"v{level}" for level in range(depth)]
    base = f"${draw(st.sampled_from(variables))}" if variables else ""
    test = draw(st.sampled_from([label, "*", "text()"]))
    if kind == "empty":
        return "()"
    if kind == "path":
        return f"{base}{axis}{test}"
    if kind == "constr":
        inner = draw(xq_queries(depth=depth))
        return f"<w>{{ {inner} }}</w>"
    if kind == "for":
        body = draw(xq_queries(depth=depth + 1))
        elem_test = draw(st.sampled_from([label, "*", "text()"]))
        return (f"for $v{depth} in {base}{axis}{elem_test} "
                f"return {body}")
    # if — note: 'if' binds no variable, so the body stays at this depth.
    body = draw(xq_queries(depth=depth))
    literal = draw(st.sampled_from(_TEXTS[:4]))
    cond_kind = draw(st.sampled_from(["true", "some", "not-some"]))
    if cond_kind == "true":
        cond = "true()"
    else:
        source = f"{base}{axis}text()"
        inner_var = f"t{depth}"
        cond = (f"some ${inner_var} in {source} satisfies "
                f"${inner_var} = \"{literal}\"")
        if cond_kind == "not-some":
            cond = f"not({cond})"
    # 'if' needs a fresh binding level to stay interesting:
    return f"if ({cond}) then {body} else ()"


# ---------------------------------------------------------------------------
# XML round-trip
# ---------------------------------------------------------------------------


class TestXmlRoundTrip:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_parse_identity(self, text):
        tree = parse(text, strip_whitespace=False)
        assert deep_equal(parse(serialize(tree), strip_whitespace=False),
                          tree)


# ---------------------------------------------------------------------------
# key encoding
# ---------------------------------------------------------------------------


class TestKeyEncodingProperty:
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                              st.text(max_size=8),
                              st.integers(0, 2**32 - 1)),
                    min_size=2, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_byte_order_equals_tuple_order(self, tuples):
        schema = ("u32", "str", "u32")
        keys = [encode_key(t, schema) for t in tuples]
        by_bytes = [decode_key(k, schema) for k in sorted(keys)]
        assert by_bytes == sorted(tuples)

    _U32S = st.integers(0, 2**32 - 1)
    #: NUL-bearing, non-BMP and longer-than-the-index-prefix strings.
    _STRINGS = st.text(
        st.one_of(st.characters(exclude_categories=["Cs"]),
                  st.sampled_from("\x00\U0001F600\U00010000")), max_size=80)

    @given(_U32S, _U32S, _STRINGS)
    @settings(max_examples=200, deadline=None)
    def test_schema_keys_equal_the_generic_encoder(self, a, b, text):
        """``xasr.schema`` builds its keys with precompiled structs;
        ``encode_key`` stays the reference they must match byte for
        byte."""
        from repro.xasr import schema

        cut = schema.index_value(text)
        assert schema.primary_key(a) == encode_key((a,))
        assert schema.parent_prefix(a) == encode_key((a,))
        assert schema.parent_key(a, b) == encode_key((a, b))
        assert schema.PARENT_KEY_U64.pack(a << 32 | b) == encode_key((a, b))
        assert schema.label_key(a, text, b) == encode_key((a, text, b))
        assert schema.label_prefix(a) == encode_key((a,))
        assert schema.label_prefix(a, text) == encode_key((a, text))
        assert schema.value_key(text, a, b) == encode_key((cut, a, b))
        assert schema.value_prefix(text) == encode_key((cut,))
        record = (a, b, a ^ b, a % 3, b % 2, text)
        assert schema.encode_record(*record[:5], text.encode()) == \
            schema.RECORD_CODEC.encode(record)


# ---------------------------------------------------------------------------
# B+-tree vs dict model
# ---------------------------------------------------------------------------


class TestBTreeModelProperty:
    @given(operations=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "range"]),
                  st.integers(0, 300), st.integers(0, 300)),
        max_size=120))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_dict_model(self, operations, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("bt") / "tree.db")
        pager = Pager(path, create=True, page_size=512)
        pool = BufferPool(pager, capacity=16)
        tree = BTree.create(pool)
        model = {}
        try:
            for op, low, high in operations:
                key = encode_key((low,))
                if op == "insert":
                    tree.insert(key, str(low).encode(), replace=True)
                    model[low] = str(low).encode()
                elif op == "lookup":
                    assert tree.search(key) == model.get(low)
                else:
                    low, high = min(low, high), max(low, high)
                    got = [decode_key(k, ("u32",))[0]
                           for k, __ in tree.range_scan(
                               encode_key((low,)), encode_key((high,)))]
                    expected = sorted(value for value in model
                                      if low <= value <= high)
                    assert got == expected
            assert len(tree) == len(model)
        finally:
            pager.close()


# ---------------------------------------------------------------------------
# XASR invariants
# ---------------------------------------------------------------------------


class TestXasrProperty:
    @given(text=xml_trees())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interval_invariants_and_reconstruction(self, text,
                                                    tmp_path_factory):
        from repro.storage.db import Database
        from repro.xasr import StoredDocument, load_document

        path = str(tmp_path_factory.mktemp("xa") / "x.db")
        with Database.create(path) as db:
            load_document(db, "d", xml=text, strip_whitespace=False)
            doc = StoredDocument(db, "d")
            nodes = list(doc.scan())
            seen = set()
            for node in nodes:
                # in < out, all numbers distinct.
                assert node.in_ < node.out
                assert node.in_ not in seen and node.out not in seen
                seen.add(node.in_)
                seen.add(node.out)
            by_in = {node.in_: node for node in nodes}
            for node in nodes:
                if node.parent_in:
                    parent = by_in[node.parent_in]
                    assert parent.in_ < node.in_ < node.out < parent.out
            # Reconstruction round-trips.
            rebuilt = serialize(doc.to_document())
            assert rebuilt == serialize(parse(text,
                                              strip_whitespace=False))


# ---------------------------------------------------------------------------
# engine equivalence — the headline property
# ---------------------------------------------------------------------------


class TestCursorInterleavingProperty:
    """Interleaved ``Cursor.fetch(n)`` streams ≡ their serial runs.

    Several prepared queries (spread over two sessions with different
    profiles and a deliberately tiny batch size, so every cursor crosses
    many block boundaries) are opened at once; hypothesis drives the
    fetch schedule — which cursor, how many nodes — in random orders.
    Each cursor's concatenated output must equal the query's serial
    result, no matter how the pulls interleave.
    """

    #: (query text, needs external binding) — over the document below.
    QUERIES = [
        ("//name", False),
        ("//text()", False),
        ("for $j in //journal return <t>{ $j/title }</t>", False),
        ("for $n in //name return "
         "if (some $t in $n/text() satisfies $t = $w) "
         "then <hit>{ $n }</hit> else ()", True),
    ]
    BINDING_POOL = ["Ana", "Bob", "nobody"]
    DOCUMENT = ("<lib>" + "".join(
        f"<journal><authors><name>Ana</name><name>Bob</name>"
        f"<name>n{i}</name></authors><title>t{i}</title></journal>"
        for i in range(6)) + "</lib>")

    _dbms = None

    @classmethod
    def _shared_dbms(cls):
        # One read-only dbms reused across hypothesis examples (loads
        # are expensive; examples only vary the fetch schedule).
        if cls._dbms is None:
            import atexit
            import tempfile
            import os

            from repro.core.dbms import XmlDbms

            path = os.path.join(tempfile.mkdtemp("interleave"), "i.db")
            cls._dbms = XmlDbms(path, buffer_capacity=128)
            atexit.register(cls._dbms.close)
            cls._dbms.load("doc", xml=cls.DOCUMENT)
        return cls._dbms

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_fetches_equal_serial(self, data):
        from repro.xmlkit.serializer import serialize

        dbms = self._shared_dbms()
        sessions = [dbms.session(batch_size=3),
                    dbms.session(profile="engine-2", batch_size=2)]
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, len(sessions) - 1),
                               st.integers(0, len(self.QUERIES) - 1)),
                     min_size=2, max_size=4),
            label="cursors (session, query)")

        serial, cursors = [], []
        for session_index, query_index in picks:
            query, needs_binding = self.QUERIES[query_index]
            bindings = None
            if needs_binding:
                bindings = {"w": data.draw(
                    st.sampled_from(self.BINDING_POOL), label="binding")}
            session = sessions[session_index]
            serial.append(session.query("doc", query, bindings=bindings))
            cursors.append(session.prepare("doc", query)
                           .execute(bindings=bindings))

        collected = [[] for __ in cursors]
        live = set(range(len(cursors)))
        while live:
            index = data.draw(st.sampled_from(sorted(live)),
                              label="which cursor")
            nodes = cursors[index].fetch(
                data.draw(st.integers(1, 5), label="fetch size"))
            if nodes:
                collected[index].extend(nodes)
            else:
                live.discard(index)
        for cursor in cursors:
            cursor.close()

        for index, nodes in enumerate(collected):
            assert "".join(serialize(node) for node in nodes) \
                == serial[index], picks[index]


class TestEngineEquivalenceProperty:
    @given(document=xml_trees(), query=xq_queries())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_all_engines_agree(self, document, query, tmp_path_factory):
        from repro.core.dbms import XmlDbms

        path = str(tmp_path_factory.mktemp("eq") / "eq.db")
        with XmlDbms(path, buffer_capacity=128) as dbms:
            dbms.load("d", xml=document)
            reference = dbms.query("d", query, profile="m1")
            for profile in ("m2", "m3", "m4", "engine-2", "engine-5"):
                assert dbms.query("d", query, profile=profile) == \
                    reference, (profile, query, document)


# ---------------------------------------------------------------------------
# value indexes under random update sequences
# ---------------------------------------------------------------------------

_VI_VALUES = ["a", "bee", "a", "zz", "m&m", "<x>", "same", "q" * 70]

_VI_BASE = ("<r><meta>seed</meta><flip>pivot</flip>"
            "<basket><item><name>a</name></item>"
            "<item><name>bee</name></item></basket></r>")

#: Every label that ever exists in the document gets a value index, so
#: the property exercises maintenance on indexed and re-labelled nodes.
_VI_LABELS = ("meta", "flip", "flop", "basket", "item", "name", "r")


@st.composite
def update_ops(draw):
    kind = draw(st.sampled_from(
        ["set_meta", "insert_first", "insert_last", "insert_text",
         "delete_items", "rename_flip"]))
    value = draw(st.sampled_from(_VI_VALUES))
    return kind, value


class TestValueIndexUpdateProperty:
    """After any random update sequence, every value index agrees
    exactly with a full rescan of its document — and ``drop_index``
    returns the tree's pages to the free list."""

    @staticmethod
    def _statement(kind: str, value: str, flip_label: str) -> str:
        escaped = value.replace("&", "&amp;").replace("<", "&lt;")
        quoted = value.replace('"', '""')
        if kind == "set_meta":
            return ('replace value of node /r/meta/text() '
                    f'with "{quoted}"')
        if kind == "insert_first":
            return (f'insert node <item><name>{escaped}</name></item> '
                    'as first into /r/basket')
        if kind == "insert_last":
            return (f'insert node <item><name>{escaped}</name></item> '
                    'as last into /r/basket')
        if kind == "insert_text":
            return f'insert node "{quoted}" as last into /r/basket'
        if kind == "delete_items":
            return 'delete nodes /r/basket/item'
        assert kind == "rename_flip"
        target = "flop" if flip_label == "flip" else "flip"
        return f'rename node /r/{flip_label} as {target}'

    @given(ops=st.lists(update_ops(), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_indexes_match_rescan_after_updates(self, ops,
                                                tmp_path_factory):
        from repro.core.dbms import XmlDbms
        from tests.test_value_index import assert_index_consistent

        path = str(tmp_path_factory.mktemp("vi") / "vi.db")
        with XmlDbms(path, buffer_capacity=512) as dbms:
            dbms.load("d", xml=_VI_BASE)
            for label in _VI_LABELS:
                dbms.create_index("d", label)
            flip_label = "flip"
            for kind, value in ops:
                dbms.update("d", self._statement(kind, value, flip_label))
                if kind == "rename_flip":
                    flip_label = ("flop" if flip_label == "flip"
                                  else "flip")
                assert_index_consistent(dbms, "d")
            free_before = dbms.db.pager.free_page_count()
            dbms.drop_index("d", "name")
            assert dbms.db.pager.free_page_count() > free_before
