"""Pins on what the tree build hands out and on the work of its engines.

The digest covers the outputs: ``to_json``, the notes and the printed
entropy decimals (not ``repr(core_entropy)``, whose last bits change with
the interpreter) on the acceptance corpus and on the ladders
``0(w^k,2)``.  The totals count the work of two engines on the acceptance
corpus: the triod states that the vertex set solves and the automaton
table entries that the realizing addresses fill.  A change to the
bookkeeping around the engines moves neither; a change that moves one
updates its pin and says why.
"""

import hashlib

from exptree import realization, treebuild
from exptree.analysis import _entropy_digits
from exptree.partition import validate_base
from exptree.sequences import canonicalize
from exptree.treebuild import build_tree, to_json

LADDER_WORDS = [(1, 0), (1, 0, 0), (0, 1), (1, -1)]

OUTPUT_DIGEST = "61ec28467c70860a9e84dfc8039331016411fb06e226c103c63c72c9bafdbdd0"
TRIOD_STATES = 331  # the sizes of the vertex sets' triod memos, summed
TABLE_ENTRIES = 1603  # the filled entries of the builds' automaton tables, summed


def ladder_trees():
    return [
        build_tree(validate_base(canonicalize([0], list(w) * k + [2])))
        for w in LADDER_WORDS
        for k in range(2, 17)
    ]


def test_outputs_are_pinned(acceptance_corpus):
    digest = hashlib.sha256()
    for tree in acceptance_corpus.trees + ladder_trees():
        for text in (to_json(tree), repr(tree.notes), _entropy_digits(tree)[2]):
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == OUTPUT_DIGEST


def test_engine_work_is_pinned(acceptance_corpus, monkeypatch):
    maps, automata = [], []

    class CountingMap(treebuild._TriodMap):
        def __init__(self, P):
            super().__init__(P)
            maps.append(self)

    class CountingPositions(realization._Positions):
        def __init__(self, P):
            super().__init__(P)
            automata.append(self)

    monkeypatch.setattr(treebuild, "_TriodMap", CountingMap)
    monkeypatch.setattr(realization, "_Positions", CountingPositions)
    for P in acceptance_corpus.partitions:
        build_tree(P)
    assert len(maps) == len(acceptance_corpus.partitions)
    states = sum(len(m.memo) for m in maps)
    entries = sum(
        e is not None for a in automata for row in a._tables.values() for e in row
    )
    assert (states, entries) == (TRIOD_STATES, TABLE_ENTRIES)
