"""Group and cone laws of graph products, and the one-pass reduction against
the greedy normaliser it replaced.

Elements are drawn as raw syllable sequences with signed vertex words, so
identity syllables, cancellations and amalgamations across commuting
syllables all occur.
"""

import pytest
from hypothesis import given, strategies as st

from wqlat.graphprod import Graph, GraphProduct
from wqlat.order import Presentation, PresentationError
from wqlat.words import FreeGroup, format_word, reduce_word

from conftest import SQUARE4, pres_of

FREE2 = GraphProduct(
    Graph(3, [(0, 1), (1, 2)]), [FreeGroup(2), FreeGroup(1), FreeGroup(2)], name="graph:free2-path3"
)
LAW_PRESETS = {name: pres_of(name) for name in ("graph:path3", "graph:noedge2", "graph:complete2")}
LAW_PRESETS["graph:square4.json"] = pres_of(SQUARE4)
LAW_PRESETS[FREE2.name] = FREE2


def greedy_canon(pres, syllables):
    """Reference normaliser: merge the first mergeable pair and restart until
    none is left, then pick the smallest vertex that can move to the front."""
    items = []
    for v, g in syllables:
        pres._check_vertex(v)
        if g != pres.vertices[v].identity():
            items.append((v, g))
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            vi, gi = items[i]
            for j in range(i + 1, len(items)):
                vj = items[j][0]
                if vj == vi:
                    prod = pres.vertices[vi].mul(gi, items[j][1])
                    del items[j]
                    if prod == pres.vertices[vi].identity():
                        del items[i]
                    else:
                        items[i] = (vi, prod)
                    changed = True
                    break
                if not pres.graph.adjacent(vj, vi):
                    break
            if changed:
                break
    out = []
    while items:
        best = None
        for idx in range(len(items)):
            v = items[idx][0]
            if all(pres.graph.adjacent(items[l][0], v) for l in range(idx)):
                if best is None or v < items[best][0]:
                    best = idx
        out.append(items.pop(best))
    return tuple(out)


def raw_syllables(signs=(1, -1)):
    """Raw (vertex, letters) draws; vertex and generator ids are reduced per preset."""
    letters = st.lists(st.tuples(st.integers(0, 1), st.sampled_from(signs)), max_size=3)
    return st.lists(st.tuples(st.integers(0, 3), letters), max_size=10)


def realise(pres, raw):
    """Syllables of a raw draw, each vertex word read in its vertex group's own layout."""
    n = pres.graph.n_vertices
    out = []
    for v, letters in raw:
        vp = pres.vertices[v % n]
        word = reduce_word([(g % vp.n_gens, s) for g, s in letters])
        out.append((v % n, vp.parse(format_word(word, vp.gen_names))))
    return out


signed = raw_syllables()
positive = raw_syllables(signs=(1,))


@pytest.mark.parametrize("name", sorted(LAW_PRESETS))
class TestGraphProductLaws:
    @given(signed, signed)
    def test_matches_greedy_reference(self, name, a, b):
        pres = LAW_PRESETS[name]
        raw_a, raw_b = realise(pres, a), realise(pres, b)
        x, y = greedy_canon(pres, raw_a), greedy_canon(pres, raw_b)
        assert pres.canon(raw_a) == x
        assert pres.mul(x, y) == greedy_canon(pres, x + y)
        assert pres.inv(x) == greedy_canon(pres, [(v, pres.vertices[v].inv(g)) for v, g in reversed(x)])

    @given(signed, signed, signed)
    def test_group_laws(self, name, a, b, c):
        pres = LAW_PRESETS[name]
        x, y, z = (pres.canon(realise(pres, r)) for r in (a, b, c))
        e = pres.identity()
        assert pres.mul(pres.mul(x, y), z) == pres.mul(x, pres.mul(y, z))
        assert pres.mul(e, x) == x == pres.mul(x, e)
        assert pres.mul(x, pres.inv(x)) == e == pres.mul(pres.inv(x), x)

    @given(signed)
    def test_parse_print_round_trip(self, name, a):
        pres = LAW_PRESETS[name]
        x = pres.canon(realise(pres, a))
        assert pres.parse(pres.canonical_str(x)) == x

    @given(positive, signed)
    def test_cone_meets_its_inverse_only_at_identity(self, name, a, b):
        pres = LAW_PRESETS[name]
        p, x = pres.canon(realise(pres, a)), pres.canon(realise(pres, b))
        assert pres.is_positive(p)
        assert pres.is_positive(pres.inv(p)) == (p == pres.identity())
        if pres.is_positive(x) and pres.is_positive(pres.inv(x)):
            assert x == pres.identity()

    @given(signed, signed, positive)
    def test_order_is_quotient_positivity(self, name, a, b, c):
        pres = LAW_PRESETS[name]
        x, y, p = (pres.canon(realise(pres, r)) for r in (a, b, c))
        above = pres.mul(x, p)
        expected = [Presentation.leq(pres, x, z) for z in (y, above, x)]
        assert expected[1:] == [True, True]
        assert [pres.leq(x, z) for z in (y, above, x)] == expected
        assert pres.order_matrix([x], [y, above, x])[0].tolist() == expected


@pytest.mark.parametrize("op", ["canon", "parse", "mul_left", "mul_right", "inv", "leq", "leq_right",
                                "order_matrix_left", "order_matrix_right", "join", "is_positive",
                                "is_positive_after_negative", "canonical_str", "morphism"])
@pytest.mark.parametrize("bad", [3, 7, -1])
def test_invalid_vertex_ids_rejected(op, bad):
    pres = pres_of("graph:path3")
    a = pres.parse("[v0: a]")
    x = ((bad, a[0][1]),)
    calls = {
        "canon": lambda: pres.canon(x),
        "parse": lambda: pres.parse(f"[v{bad}: a]"),
        "mul_left": lambda: pres.mul(x, a),
        "mul_right": lambda: pres.mul(a, x),
        "inv": lambda: pres.inv(x),
        "leq": lambda: pres.leq(x, a),
        "leq_right": lambda: pres.leq(a, x),
        "order_matrix_left": lambda: pres.order_matrix([x], [a]),
        "order_matrix_right": lambda: pres.order_matrix([a], [x]),
        "join": lambda: pres.join(a, x),
        "is_positive": lambda: pres.is_positive(x),
        # A non-positive syllable ahead of the bad one does not end the check.
        "is_positive_after_negative": lambda: pres.is_positive(pres.inv(a) + x),
        "canonical_str": lambda: pres.canonical_str(x),
        "morphism": lambda: pres.morphism()(x),
    }
    if op == "parse" and bad < 0:
        with pytest.raises(PresentationError, match="malformed"):
            calls[op]()
        return
    with pytest.raises(PresentationError, match=f"invalid vertex id {bad}"):
        calls[op]()
