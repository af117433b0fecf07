import random

import pytest

from exptree.sequences import canonicalize
from exptree.verify import (
    make_corpus,
    random_base,
    run_all,
    suite_entropy_agreement,
    suite_tree_axioms,
)


class TestCorpus:
    def test_deterministic(self):
        c1 = make_corpus(6, 42, build_trees=False)
        c2 = make_corpus(6, 42, build_trees=False)
        assert c1.bases == c2.bases

    def test_bases_are_valid(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_base(rng, 3, 4, 3)
            assert not a.is_periodic()
            assert a.entry(1) == 0
            assert len(a.preperiod) <= 3 and len(a.period) <= 4

    def test_distinct(self):
        c = make_corpus(12, 5, build_trees=False)
        assert len(set(c.bases)) == 12

    def test_too_few_bases_raise(self):
        assert set(make_corpus(2, 1, 1, 1, 1, build_trees=False).bases) == {
            canonicalize([0], [1]),
            canonicalize([0], [-1]),
        }
        with pytest.raises(ValueError, match="only 2 distinct bases"):
            make_corpus(3, 1, 1, 1, 1, build_trees=False)

    def test_support_check_leaves_the_draw_alone(self):
        # The support check takes nothing from the seeded generator.
        rng = random.Random(8)
        want = []
        while len(want) < 30:
            a = random_base(rng)
            if a not in want:
                want.append(a)
        assert make_corpus(30, 8, build_trees=False).bases == want


class TestSuites:
    def test_run_all_green(self):
        results = run_all(count=5, seed=123)
        assert all(not r.failures for r in results), [
            (r.name, r.failures[:2]) for r in results if r.failures
        ]
        assert {r.name for r in results} >= {
            "vertex-set closure",
            "tree axioms",
            "classification",
            "entropy agreement",
        }

    def test_acceptance_run(self):
        # The run of ``exptree verify --count 25 --seed 2024``, with the
        # number of checks each suite makes; a change that alters a count
        # on purpose updates it here.
        results = run_all(25, 2024)
        assert [(r.name, r.failures) for r in results if r.failures] == []
        assert [(r.name, r.cases) for r in results] == [
            ("vertex-set closure", 1183),
            ("tree axioms", 184),
            ("unlinked address families", 100),
            ("order preservation", 3465),
            ("interval pullbacks", 1188),
            ("interval splitting", 300),
            ("triod semi-conjugacy", 720),
            ("separating addresses", 450),
            ("partition properties", 483),
            ("classification", 127),
            ("entropy agreement", 50),
        ]

    def test_suites_count_cases(self):
        corpus = make_corpus(4, 9)
        res = suite_tree_axioms(corpus)
        assert res.cases > 0 and res.ok()
        res = suite_entropy_agreement(corpus)
        assert res.cases > 0 and res.ok()
