"""B+-tree tests: lookups, splits, range scans, bulk load, persistence."""

import random
import sys

import pytest

from repro.errors import BTreeError
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.record import encode_key


@pytest.fixture
def pool(tmp_path):
    pager = Pager(str(tmp_path / "btree.db"), create=True, page_size=512)
    pool = BufferPool(pager, capacity=64)
    yield pool
    pool.flush_and_clear()
    pager.close()


@pytest.fixture
def tree(pool):
    return BTree.create(pool)


def k(value):
    return encode_key((value,))


class TestPointOperations:
    def test_empty_tree_search(self, tree):
        assert tree.search(k(1)) is None
        assert len(tree) == 0

    def test_insert_then_search(self, tree):
        tree.insert(k(5), b"five")
        assert tree.search(k(5)) == b"five"
        assert len(tree) == 1

    def test_contains(self, tree):
        tree.insert(k(5), b"v")
        assert k(5) in tree
        assert k(6) not in tree

    def test_duplicate_insert_rejected(self, tree):
        tree.insert(k(1), b"a")
        with pytest.raises(BTreeError):
            tree.insert(k(1), b"b")

    def test_replace(self, tree):
        tree.insert(k(1), b"a")
        tree.insert(k(1), b"b", replace=True)
        assert tree.search(k(1)) == b"b"
        assert len(tree) == 1

    def test_oversized_entry_rejected(self, tree):
        with pytest.raises(BTreeError):
            tree.insert(k(1), b"x" * 4096)


class TestSplitsAndOrder:
    def test_many_random_inserts(self, tree):
        keys = list(range(1500))
        random.Random(42).shuffle(keys)
        for key in keys:
            tree.insert(k(key), str(key).encode())
        assert tree.height > 1
        for probe in (0, 1, 499, 750, 1499):
            assert tree.search(k(probe)) == str(probe).encode()

    def test_full_scan_is_sorted(self, tree):
        keys = list(range(500))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(k(key), b"")
        scanned = [key for key, __ in tree.items()]
        assert scanned == sorted(scanned)
        assert len(scanned) == 500

    def test_string_keys(self, tree):
        words = ["journal", "author", "title", "year", "volume"]
        for word in words:
            tree.insert(encode_key((word,)), word.encode())
        scanned = [value for __, value in tree.items()]
        assert scanned == [word.encode() for word in sorted(words)]

    def test_leaf_page_count_grows(self, tree):
        for key in range(800):
            tree.insert(k(key), b"v" * 20)
        assert tree.leaf_page_count() > 1


class TestRangeScan:
    @pytest.fixture(autouse=True)
    def populate(self, tree):
        for key in range(0, 100, 2):  # even keys 0..98
            tree.insert(k(key), str(key).encode())
        self.tree = tree

    def decode(self, pairs):
        return [int(value) for __, value in pairs]

    def test_inclusive_range(self):
        assert self.decode(self.tree.range_scan(k(10), k(20))) == \
            [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self):
        got = self.decode(self.tree.range_scan(k(10), k(20),
                                               include_low=False,
                                               include_high=False))
        assert got == [12, 14, 16, 18]

    def test_bounds_between_keys(self):
        assert self.decode(self.tree.range_scan(k(11), k(15))) == [12, 14]

    def test_open_ended_low(self):
        assert self.decode(self.tree.range_scan(None, k(6))) == [0, 2, 4, 6]

    def test_open_ended_high(self):
        assert self.decode(self.tree.range_scan(k(94), None)) == [94, 96, 98]

    def test_empty_range(self):
        assert self.decode(self.tree.range_scan(k(11), k(11))) == []

    def test_prefix_scan(self, pool):
        tree = BTree.create(pool)
        for label, in_ in [("aa", 1), ("aa", 5), ("ab", 2), ("b", 3)]:
            tree.insert(encode_key((label, in_)), b"")
        got = list(tree.prefix_scan(encode_key(("aa",))))
        assert len(got) == 2


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self, pool):
        items = [(k(key), str(key).encode()) for key in range(2000)]
        bulk = BTree.create(pool)
        bulk.bulk_load(iter(items))
        assert len(bulk) == 2000
        assert bulk.search(k(1234)) == b"1234"
        assert [key for key, __ in bulk.items()] == [key for key, __ in
                                                     items]

    def test_bulk_load_empty(self, tree):
        tree.bulk_load(iter([]))
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_bulk_load_requires_sorted_input(self, tree):
        with pytest.raises(BTreeError):
            tree.bulk_load(iter([(k(2), b""), (k(1), b"")]))

    def test_bulk_load_rejects_duplicates(self, tree):
        with pytest.raises(BTreeError):
            tree.bulk_load(iter([(k(1), b""), (k(1), b"")]))

    def test_bulk_load_on_nonempty_rejected(self, tree):
        tree.insert(k(1), b"")
        with pytest.raises(BTreeError):
            tree.bulk_load(iter([(k(2), b"")]))

    def test_insert_after_bulk_load(self, tree):
        tree.bulk_load((k(key), b"v") for key in range(0, 100, 2))
        tree.insert(k(51), b"new")
        scanned = [key for key, __ in tree.items()]
        assert scanned == sorted(scanned)
        assert tree.search(k(51)) == b"new"


def reference_pack(items, page_size, fill_factor):
    """The bulk-load packing rule, written naively: every fit test
    re-measures the whole node with the on-disk size formula.  Returns
    the levels bottom-up, each a list of ``(first_key, member_keys)``."""
    capacity = int(page_size * fill_factor)

    def leaf_size(entries):
        return 3 + 4 + sum(4 + len(key) + len(value)
                           for key, value in entries)

    def internal_size(keys):
        return 3 + 4 * (len(keys) + 1) + sum(2 + len(key) for key in keys)

    leaves = [[]]
    for key, value in items:
        if leaves[-1] and (leaf_size(leaves[-1]) + 4 + len(key)
                           + len(value) > capacity):
            leaves.append([])
        leaves[-1].append((key, value))
    level = [(leaf[0][0] if leaf else b"", [key for key, __ in leaf])
             for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        parents = []
        index = 0
        while index < len(level):
            first_key, keys = level[index][0], []
            index += 1
            while index < len(level) and (
                    internal_size(keys) + 2 + len(level[index][0]) + 4
                    <= capacity):
                keys.append(level[index][0])
                index += 1
            parents.append((first_key, keys))
        levels.append(parents)
        level = parents
    return levels


def tree_levels(tree):
    """The stored tree in :func:`reference_pack`'s shape (node keys per
    level, bottom-up), read back through the node layer."""
    levels = []
    nodes = [tree._read_node(tree.root_page_id)]
    while True:
        levels.append([list(node.keys) for node in nodes])
        if nodes[0].is_leaf:
            return levels[::-1]
        nodes = [tree._read_node(child)
                 for node in nodes for child in node.children]


class TestBulkLoadIsLinearAndLayoutPreserving:
    @pytest.fixture
    def make_tree(self, tmp_path):
        opened = []

        def make(page_size):
            pager = Pager(str(tmp_path / f"bulk{len(opened)}.db"),
                          create=True, page_size=page_size)
            pool = BufferPool(pager, capacity=4096)
            opened.append((pool, pager))
            return BTree.create(pool)

        yield make
        for pool, pager in opened:
            pool.flush_and_clear()
            pager.close()

    @staticmethod
    def entries(count, seed=3):
        rng = random.Random(seed)
        return [(encode_key((key, "x" * rng.randrange(12))),
                 b"v" * rng.randrange(40)) for key in range(count)]

    def test_node_layer_work_is_per_page_not_per_entry(self, make_tree):
        """Python calls into btree.py during a bulk load are bounded by
        the page count: nothing re-measures a node per appended entry
        (the parent made 20 000+ ``serialized_size`` walks here)."""
        tree = make_tree(4096)
        items = self.entries(20_000)
        calls = 0

        def count_btree_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and \
                    frame.f_code.co_filename.endswith("btree.py"):
                calls += 1

        sys.setprofile(count_btree_calls)
        try:
            tree.bulk_load(iter(items))
        finally:
            sys.setprofile(None)
        pages = sum(len(level) for level in tree_levels(tree))
        assert len(tree) == 20_000
        assert pages < 20_000 / 20
        assert calls <= 12 * pages + 20, (calls, pages)

    @pytest.mark.parametrize("page_size", [256, 4096])
    @pytest.mark.parametrize("fill_factor", [0.9, 0.5])
    def test_layout_equals_the_naive_packer(self, make_tree, page_size,
                                            fill_factor):
        tree = make_tree(page_size)
        items = self.entries(20_000)
        tree.bulk_load(iter(items), fill_factor=fill_factor)
        expected = reference_pack(items, page_size, fill_factor)
        stored = tree_levels(tree)
        assert tree.entry_count == 20_000
        assert tree.height == len(expected)
        assert tree.leaf_page_count() == len(expected[0])
        assert [keys[0] for keys in stored[0]] == \
            [first for first, __ in expected[0]]
        assert stored == [[keys for __, keys in level]
                          for level in expected]


class TestPersistence:
    def test_reopen_by_meta_page(self, tmp_path):
        path = str(tmp_path / "persist.db")
        pager = Pager(path, create=True, page_size=512)
        pool = BufferPool(pager, capacity=16)
        tree = BTree.create(pool)
        for key in range(300):
            tree.insert(k(key), str(key).encode())
        meta = tree.meta_page_id
        pool.flush_and_clear()
        pager.close()

        pager = Pager(path)
        pool = BufferPool(pager, capacity=16)
        reopened = BTree(pool, meta)
        assert len(reopened) == 300
        assert reopened.search(k(250)) == b"250"
        pager.close()

    def test_small_buffer_pool_still_correct(self, tmp_path):
        """The tree works with only a handful of frames (heavy
        eviction)."""
        pager = Pager(str(tmp_path / "tiny.db"), create=True,
                      page_size=512)
        pool = BufferPool(pager, capacity=4)
        tree = BTree.create(pool)
        for key in range(400):
            tree.insert(k(key), str(key).encode())
        assert [int(value) for __, value in tree.items()] == \
            list(range(400))
        assert pool.stats.evictions > 0
        pager.close()


class TestSharedDecodedNodes:
    """Decoded nodes belong to the pool's frames, not to a tree
    instance: every instance reads the same node objects, so a
    published node must never change under a reader's hands."""

    def test_instances_share_one_decoded_node_per_page(self, pool, tree):
        for key in range(200):
            tree.insert(k(key), b"v")
        other = BTree(pool, tree.meta_page_id)
        assert (other._descend_to_leaf(k(77))
                is tree._descend_to_leaf(k(77)))
        decodes = pool.stats.decodes
        assert list(other.items()) == list(tree.items())
        assert pool.stats.decodes == decodes

    def test_write_through_another_instance_leaves_held_node_intact(
            self, pool, tree):
        for key in range(5):
            tree.insert(k(key), b"old")
        held = tree._descend_to_leaf(k(2))
        keys, values = held.keys, held.values
        before = (list(keys), list(values))

        writer = BTree(pool, tree.meta_page_id)
        writer.insert(k(99), b"new")
        writer.insert(k(2), b"replaced", replace=True)
        writer.delete(k(0))

        assert held.keys is keys and held.values is values
        assert (list(held.keys), list(held.values)) == before
        # A fresh read — through the *first* instance — sees the writes.
        fresh = tree._descend_to_leaf(k(2))
        assert fresh is not held
        assert k(99) in fresh.keys and k(0) not in fresh.keys
        assert tree.search(k(99)) == b"new"
        assert tree.search(k(2)) == b"replaced"
        assert tree.search(k(0)) is None

    def test_published_nodes_are_frozen(self, pool, tree):
        for key in range(200):                   # leaves and internals
            tree.insert(k(key), b"v")
        for node in (tree._read_node(tree.root_page_id),
                     tree._descend_to_leaf(k(1))):
            for field in (node.keys, node.values, node.children):
                assert isinstance(field, tuple)

    def test_split_through_another_instance_leaves_held_leaf_intact(
            self, pool, tree):
        tree.insert(k(0), b"v")
        held = tree._descend_to_leaf(k(0))
        assert held.page_id == tree.root_page_id
        writer = BTree(pool, tree.meta_page_id)
        for key in range(1, 200):
            writer.insert(k(key), b"v")
        assert writer.height > 1
        assert list(held.keys) == [k(0)] and held.next_leaf == 0
        reopened = BTree(pool, tree.meta_page_id)
        assert [key for key, __ in reopened.items()] == \
            [k(key) for key in range(200)]
