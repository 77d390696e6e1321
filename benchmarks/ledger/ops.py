"""Op classes and the seeded op sequence.

Query text comes from ``repro.workloads.queries``; the only text of our
own is the point lookup (a text-value equality the planner answers from
the label index), its external-variable twin, and the update mix.

Every read is *partition-safe*: the mediator fans a query out by
sending the same text to each part and merging rows, which reproduces
the single-document answer only when each row depends on one top-level
record.  ``q16-kitchen-sink`` (a constructor around the whole result)
and ``test-5`` (a value join across records) are not, so the issue's
lists carry ``q09-var-eq-var`` and ``q11-boolean`` in their place and
all five workloads run one sequence.

``q14-same-label`` is left out as well: on generated TREEBANK it
returns ~18 000 rows where its class is defined by hundreds, takes
more than half of every run on its own, and leaves the wire workloads
too few samples to support any percentile in a ten-second run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.queries import CORRECTNESS_QUERIES, EFFICIENCY_QUERIES

from rig import BENCH_COUNTER, BENCH_NOTE, Oracle

_SUITE = dict(CORRECTNESS_QUERIES)
_SUITE.update({query.name: query.xq for query in EFFICIENCY_QUERIES})

#: Scan/join queries with hundreds of result rows and up.
HEAVY = [("test-1", "dblp"), ("q01-all-titles", "dblp"),
         ("q10-strict-merge", "dblp"), ("q09-var-eq-var", "dblp"),
         ("q08-some-const", "dblp"),
         ("q12-deep-descendant", "treebank")]
#: Label-index driven, at most a few rows.
SELECTIVE = [("test-2", "dblp"), ("test-4", "dblp"),
             ("q13-nonexistent", "dblp"), ("q11-boolean", "dblp"),
             ("q15-cond-descendant", "treebank")]

POINT_TEXT = ('for $n in //{label} return if (some $t in $n/text() '
              'satisfies $t = "{value}") then $n else ()')
#: The same lookup with the constant as an external variable.  The
#: planner cannot push a variable into the label index, so this runs as
#: a scan with a residual filter — a ``heavy`` op by cost, which is why
#: it rides in that class and ``point`` stays one population.
BOUND_TEXT = ('declare variable $w external; for $n in //author return '
              'if (some $t in $n/text() satisfies $t = $w) '
              'then $n else ()')

#: Ops per class in each block of ten (the issue's class weights).
WEIGHTS = {"heavy": 2, "selective": 3, "point": 5}
#: The heavy waterfall query: ROADMAP item 1 asks where the
#: milliseconds of a sharded ``//article`` query go.
WATERFALL_HEAVY = "test-1"


@dataclass(frozen=True)
class Stmt:
    """One executable statement and what the oracle says it returns."""

    name: str
    cls: str
    document: str
    text: str
    #: Sorted ``(variable, value)`` pairs; empty for constant text.
    bindings: tuple = ()
    #: ``adhoc`` sends the text every time; ``prepared`` executes a
    #: handle prepared during set-up.
    mode: str = "adhoc"
    digest: str = ""

    @property
    def binding_dict(self) -> dict[str, str] | None:
        """Bindings as the client API takes them."""
        return dict(self.bindings) or None


def _stmt(oracle: Oracle, name: str, cls: str, document: str, text: str,
          bindings: dict[str, str] | None = None,
          mode: str = "adhoc") -> Stmt:
    return Stmt(name, cls, document, text,
                tuple(sorted((bindings or {}).items())), mode,
                oracle.expect(document, text, bindings))


def build_catalog(oracle: Oracle) -> dict[str, list[list[Stmt]]]:
    """Class → slots → statements, each with its oracle digest.

    A class is served slot by slot, and a slot rotates through its own
    statements, so every slot gets the same share of its class."""
    names = oracle.texts("dblp", "author")
    years = oracle.texts("dblp", "year")
    heavy = [[_stmt(oracle, name, "heavy", doc, _SUITE[name])]
             for name, doc in HEAVY]
    heavy.append([
        _stmt(oracle, "bound-author", "heavy", "dblp", BOUND_TEXT,
              {"w": value}, mode="prepared") for value in names])
    selective = [[_stmt(oracle, name, "selective", doc, _SUITE[name])]
                 for name, doc in SELECTIVE]
    lookups = ([("author", value) for value in names]
               + [("year", value) for value in years])
    point = [[
        _stmt(oracle, f"point-{label}", "point", "dblp",
              POINT_TEXT.format(label=label, value=value),
              mode=("adhoc", "prepared")[index % 2])
        for index, (label, value) in enumerate(lookups)]]
    return {"heavy": heavy, "selective": selective, "point": point}


def distinct(catalog: dict[str, list[list[Stmt]]]) -> list[Stmt]:
    """Every statement once, for the warm-up pass and the handles."""
    return [stmt for slots in catalog.values()
            for slot in slots for stmt in slot]


def waterfall_stmts(catalog) -> dict[str, Stmt]:
    """The heavy and the point statement the staircase is built on."""
    heavy = next(slot[0] for slot in catalog["heavy"]
                 if slot[0].name == WATERFALL_HEAVY)
    point = next(stmt for stmt in catalog["point"][0]
                 if stmt.mode == "adhoc")
    return {"heavy": heavy, "point": point}


def read_sequence(catalog, seed: int, stream: int):
    """The endless read mix of one connection.

    Each block of ten ops holds exactly the class weights in a seeded
    order, and classes and slots are served round-robin from seeded
    rotations — so the mix is identical on every seed and only order
    and constants move."""
    rng = random.Random(f"{seed}:{stream}")
    rotations = {}
    for cls, slots in catalog.items():
        shuffled = []
        for slot in slots:
            slot = list(slot)
            rng.shuffle(slot)
            shuffled.append(slot)
        rng.shuffle(shuffled)
        rotations[cls] = shuffled
    served = dict.fromkeys(catalog, 0)
    block = [cls for cls, weight in WEIGHTS.items()
             for _ in range(weight)]
    while True:
        rng.shuffle(block)
        for cls in block:
            slots = rotations[cls]
            turn = served[cls]
            served[cls] = turn + 1
            slot = slots[turn % len(slots)]
            yield slot[(turn // len(slots)) % len(slot)]


# -- the update mix --------------------------------------------------------

SEED_COUNTER = (f"insert node <{BENCH_COUNTER}>n0</{BENCH_COUNTER}> "
                f"as last into /dblp")
READ_COUNTER = f"for $t in /dblp/{BENCH_COUNTER}/text() return $t"
READ_NOTES = f"for $t in /dblp/{BENCH_NOTE}/text() return $t"


def update_sequence():
    """``(kind, statement, bindings)`` forever: a counter bump between
    every insert and every delete of the single bench-owned note, so the
    document returns to its size every four ops."""
    step = 0
    while True:
        step += 1
        yield ("replace",
               f"replace value of node /dblp/{BENCH_COUNTER}/text() "
               f"with $v", {"v": f"n{step}"})
        if step % 2:
            yield ("insert",
                   f"insert node <{BENCH_NOTE}>{{ $v }}</{BENCH_NOTE}> "
                   f"as last into /dblp", {"v": f"note{step}"})
        else:
            yield ("delete", f"delete node /dblp/{BENCH_NOTE}", None)


class UpdateLedger:
    """What the server has acknowledged, for the durability check."""

    def __init__(self) -> None:
        self.counter = "n0"
        self.notes: list[str] = []

    def acknowledge(self, kind: str, bindings: dict | None) -> None:
        """Record one update the server answered UPDATE_OK for."""
        if kind == "replace":
            self.counter = bindings["v"]
        elif kind == "insert":
            self.notes.append(bindings["v"])
        else:
            self.notes.clear()
