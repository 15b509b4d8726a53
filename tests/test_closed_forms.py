"""Closed forms on the join-bound scans.

* ``join_table(xs, rel)`` leaves out the pairs ``rel`` makes comparable.
* ``check_join_preserving`` reads comparable-pair failures off the two
  relations and joins only the open pairs.
* Semidirect images are chained phi^(+-1) steps of one linear substitution.
* ``free:1`` holds a^k as the int k.

The reference implementations these replace live here.
"""

import random

import pytest

from wqlat.controlled import Morphism, check_join_preserving
from wqlat.order import IntGroup, JoinResult, Presentation
from wqlat.semidirect import IMAGE_CHAIN_DEPTH
from wqlat.words import CyclicFreeGroup, FreeGroup, letter_sum, word_inv, word_mul, word_pow

from conftest import README_PRESETS, ball_of, pres_of, short

SD_PRESETS = ("sd:swap2", "sd:perm3", "sd:phi-ab", "sd:nonexample")
TABLE_BALLS = [(name, 3) for name in README_PRESETS] + [(name, 4) for name in SD_PRESETS + ("bs:2,3",)]


@pytest.mark.parametrize("name,radius", TABLE_BALLS, ids=lambda v: short(v) if isinstance(v, str) else f"r{v}")
def test_join_table_given_rel_is_the_default_table_without_comparable_pairs(name, radius):
    pres, ball = pres_of(name), ball_of(name, radius)
    els, rel = ball.elements, ball.order()
    full = Presentation.join_table(pres, els)  # one _join per pair
    assert pres.join_table(els) == full
    expected = {(i, j): r for (i, j), r in full.items() if not (rel[i, j] or rel[j, i])}
    assert pres.join_table(els, rel) == expected


def join_preserving_by_pairs(mor, ball):
    """The per-pair check it replaced: every pair of the full table joined and compared."""
    failures = []
    inconclusive = 0
    els = ball.elements
    images = [mor(x) for x in els]
    table = mor.source.join_table(els)
    for i, j in sorted(table):
        r = table[i, j]
        if r.is_inconclusive:
            inconclusive += 1
            continue
        tgt = mor.target._join(images[i], images[j])
        if not (tgt.is_finite and tgt.value == mor(r.value)):
            failures.append((els[i], els[j]))
    return {"failures": failures, "inconclusive": inconclusive, "ok": not failures}


def assert_same_report(mor, ball):
    got, ref = check_join_preserving(mor, ball), join_preserving_by_pairs(mor, ball)
    assert (got["failures"], got["ok"]) == (ref["failures"], ref["ok"])
    # A comparable pair is decided by the order, even where the family rule
    # is inconclusive (the base semidirect product); the open pairs match.
    rel = ball.order()
    full = Presentation.join_table(mor.source, ball.elements)
    comparable = sum(r.is_inconclusive for (i, j), r in full.items() if rel[i, j] or rel[j, i])
    assert got["inconclusive"] == ref["inconclusive"] - comparable
    return got


ALL_PRESETS = README_PRESETS + ("free:1", "bs:3,-2")


@pytest.mark.parametrize("name", ALL_PRESETS, ids=short)
def test_join_preserving_equals_the_per_pair_loop(name):
    radius = 3 if name.startswith(("graph", "hnn")) else 4
    assert_same_report(pres_of(name).morphism(), ball_of(name, radius))


def test_comparable_pair_failures_are_counted():
    # w -> -length reverses the order, so every pair x < y fails, and no open
    # pair of the free monoid has a join.
    free = pres_of("free:2")
    mor = Morphism("negated length", free, IntGroup(), lambda w: -letter_sum(w))
    report = assert_same_report(mor, ball_of("free:2", 3))
    assert len(report["failures"]) == sum(len(w) for w in ball_of("free:2", 3).elements)  # its proper prefixes


def test_open_pair_failures_are_counted():
    # The total exponent is order preserving on Z^2, but [v0: a] v [v1: a]
    # has total 2, not the maximum 1.
    pres = pres_of("graph:complete2")
    mor = Morphism("total", pres, IntGroup(), lambda x: sum(g for _, g in x))
    report = assert_same_report(mor, ball_of("graph:complete2", 3))
    assert (pres.parse("[v0: a]"), pres.parse("[v1: a]")) in report["failures"]
    assert not report["ok"]


def substitute_by_products(word, table):
    out = ()
    for gen, sign in word:
        out = word_mul(out, table[gen] if sign == 1 else word_inv(table[gen]))
    return out


def apply_by_products(aut, word, power):
    """phi^power by repeated substitution, each a ``word_mul`` per letter."""
    table = aut.images if power >= 0 else aut.inv_images
    for _ in range(abs(power)):
        word = substitute_by_products(word, table)
    return word


@pytest.mark.parametrize("name", SD_PRESETS)
def test_chained_images_equal_repeated_substitution(name):
    pres = pres_of(name)
    rng = random.Random(7)
    n = pres.base.n_gens
    for _ in range(40):
        word = pres.base.parse(" ".join(f"{pres.base.gen_names[rng.randrange(n)]}^{rng.choice((-1, 1))}"
                                        for _ in range(rng.randrange(7))))
        powers = list(range(-6, 7))
        rng.shuffle(powers)  # the chain is read through the cache in any order
        for k in powers:
            expected = apply_by_products(pres.aut, word, k)
            assert pres._image(word, k) == expected
            assert pres.aut.apply(word, k) == expected


@pytest.mark.parametrize("name", SD_PRESETS)
def test_images_past_the_chain_depth(name):
    pres = pres_of(name)
    k = IMAGE_CHAIN_DEPTH + 1 if name != "sd:nonexample" else 3
    word = pres.base.parse("a b^-1")
    assert pres._image(word, k) == apply_by_products(pres.aut, word, k)
    assert pres._image(word, -k) == apply_by_products(pres.aut, word, -k)


class TestCyclicFreeGroup:
    z, f1 = CyclicFreeGroup(), FreeGroup(1)

    @pytest.mark.parametrize("k", range(-20, 21))
    def test_prints_and_parses_as_the_free_group_of_rank_one(self, k):
        word = word_pow(((0, 1),), k)
        text = self.f1.canonical_str(word)
        assert self.z.canonical_str(k) == text
        assert self.z.parse(text) == k
        assert self.z.is_positive(k) == self.f1.is_positive(word)
        witness = self.z.positive_witness(k)
        assert witness == self.f1.positive_witness(word)

    def test_group_laws(self):
        z = self.z
        values = range(-6, 7)
        for x in values:
            assert z.mul(x, z.identity()) == x == z.mul(z.identity(), x)
            assert z.mul(x, z.inv(x)) == z.identity()
            for y in values:
                assert z.leq(x, y) == z.is_positive(z.mul(z.inv(x), y))
                for w in values:
                    assert z.mul(z.mul(x, y), w) == z.mul(x, z.mul(y, w))

    def test_joins_match(self):
        for x in range(6):
            for y in range(6):
                assert self.z.join(x, y) == JoinResult.finite(max(x, y))
                r = self.f1.join(word_pow(((0, 1),), x), word_pow(((0, 1),), y))
                assert r.value == word_pow(((0, 1),), max(x, y))

    def test_the_preset_and_the_graph_vertices_hold_ints(self):
        assert isinstance(pres_of("free:1"), CyclicFreeGroup)
        assert all(isinstance(v, CyclicFreeGroup) for v in pres_of("graph:path3").vertices)
        assert pres_of("graph:path3").parse("[v0: a^2 a^-5] [v2: a]") == ((0, -3), (2, 1))

