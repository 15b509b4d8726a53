import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wqlat
from wqlat.graphprod import Graph, GraphProduct
from wqlat.order import DirectSum, IntGroup, JoinResult, PresentationError, oracle_join
from wqlat.words import FreeGroup

from conftest import SQUARE4, ball_of, pres_of

PATH3 = pres_of("graph:path3")
NOEDGE = pres_of("graph:noedge2")
COMPLETE = pres_of("graph:complete2")


def vertex_support(x):
    return {v for v, _ in x}


def zgen(v, k):
    """Syllable (v, a^k) over the ``free:1`` vertex groups, which hold a^k as k."""
    return (v, k)


class TestCanonicalForm:
    def test_amalgamation(self):
        assert NOEDGE.canon([zgen(1, 1), zgen(1, 1)]) == (zgen(1, 2),)

    def test_shuffle_sort(self):
        assert COMPLETE.canon([zgen(1, 1), zgen(0, 1)]) == (zgen(0, 1), zgen(1, 1))

    def test_cancellation(self):
        assert NOEDGE.canon([zgen(0, 1), zgen(0, -1)]) == ()

    def test_merge_across_commuting_syllable(self):
        got = PATH3.canon([zgen(0, 1), zgen(1, 1), zgen(0, 1)])
        assert got == (zgen(0, 2), zgen(1, 1))

    def test_blocked_merge(self):
        got = NOEDGE.canon([zgen(0, 1), zgen(1, 1), zgen(0, 1)])
        assert got == (zgen(0, 1), zgen(1, 1), zgen(0, 1))

    def test_confluence_random_schedules(self):
        rng = random.Random(2)
        for _ in range(500):
            raw = [zgen(rng.randrange(3), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(9))]
            assert PATH3.canon(raw) == _random_schedule_canon(PATH3, raw, rng)


def _random_schedule_canon(pres, raw, rng):
    """Reference normaliser applying merges in random order, then sorting."""
    items = [(v, g) for v, g in raw if g != pres.vertices[v].identity()]
    while True:
        candidates = []
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if items[j][0] != items[i][0]:
                    if not pres.graph.adjacent(items[j][0], items[i][0]):
                        break
                    continue
                if all(
                    pres.graph.adjacent(items[l][0], items[i][0]) for l in range(i + 1, j)
                ):
                    candidates.append((i, j))
                break
        if not candidates:
            break
        i, j = rng.choice(candidates)
        v = items[i][0]
        prod = pres.vertices[v].mul(items[i][1], items[j][1])
        del items[j]
        if prod == pres.vertices[v].identity():
            del items[i]
        else:
            items[i] = (v, prod)
    return pres.canon(items)


class TestInitialSplit:
    def test_adjacent_vertex_becomes_initial(self):
        x = COMPLETE.canon([zgen(1, 1), zgen(0, 1)])
        part, rest = COMPLETE.initial_split(x, 1)
        assert part == zgen(1, 1)[1]
        assert rest == (zgen(0, 1),)

    def test_blocked_vertex(self):
        x = NOEDGE.canon([zgen(1, 1), zgen(0, 1)])
        part, rest = NOEDGE.initial_split(x, 0)
        assert part == NOEDGE.vertices[0].identity()
        assert rest == x

    def test_identity(self):
        part, rest = PATH3.initial_split((), 2)
        assert part == PATH3.vertices[2].identity() and rest == ()

    def test_invalid_vertex(self):
        with pytest.raises(PresentationError):
            PATH3.initial_split((), 9)


class TestOrder:
    def test_prefix_in_free_product(self):
        ab = NOEDGE.canon([zgen(0, 1), zgen(1, 1)])
        aba = NOEDGE.canon([zgen(0, 1), zgen(1, 1), zgen(0, 1)])
        ba = NOEDGE.canon([zgen(1, 1), zgen(0, 1)])
        assert NOEDGE.leq(ab, aba)
        assert not NOEDGE.leq(ab, ba)

    def test_componentwise_on_complete_graph(self):
        x = COMPLETE.canon([zgen(0, 1), zgen(1, 2)])
        y = COMPLETE.canon([zgen(0, 3), zgen(1, 2)])
        assert COMPLETE.leq(x, y)

    @pytest.mark.parametrize("pres", [PATH3, NOEDGE, COMPLETE], ids=lambda p: p.name)
    def test_both_routes_agree(self, pres):
        ball = ball_of(pres.name, 4)
        for x in ball:
            for y in ball:
                assert pres.leq(x, y) == leq_recursive(pres, x, y)


def leq_recursive(pres, x, y):
    """Reference order on positives by the initial-vertex recursion."""
    for z in (x, y):
        if not pres.is_positive(z):
            raise PresentationError("recursive order comparison needs positive elements")
    if not x:
        return True
    vertex = x[0][0]
    x_i, x_rest = pres.initial_split(x, vertex)
    y_i, y_rest = pres.initial_split(y, vertex)
    vp = pres.vertices[vertex]
    if not vp.leq(x_i, y_i):
        return False
    if x_i == y_i:
        return leq_recursive(pres, x_rest, y_rest)
    if any(not pres.graph.adjacent(v, vertex) for v in vertex_support(x_rest)):
        return False
    r_i = vp.mul(vp.inv(x_i), y_i)
    return leq_recursive(pres, x_rest, pres.canon(((vertex, r_i),) + y_rest))


class TestJoin:
    def test_free_product_infinite(self):
        ab = NOEDGE.canon([zgen(0, 1), zgen(1, 1)])
        ba = NOEDGE.canon([zgen(1, 1), zgen(0, 1)])
        assert NOEDGE.join(ab, ba).is_infinite

    def test_identity_absorbed(self):
        x = PATH3.canon([zgen(0, 1), zgen(1, 1)])
        assert PATH3.join(x, ()) == JoinResult.finite(x)

    def test_componentwise_maximum(self):
        a2 = COMPLETE.canon([zgen(0, 2)])
        b = COMPLETE.canon([zgen(1, 1)])
        assert COMPLETE.join(a2, b) == JoinResult.finite(COMPLETE.canon([zgen(0, 2), zgen(1, 1)]))

    def test_integer_vertex_groups(self):
        # The graph product calls the vertex rule _join, IntGroup's only join.
        pres = GraphProduct(Graph(2, [(0, 1)]), [IntGroup(), IntGroup()])
        x, y = pres.canon([(0, 2)]), pres.canon([(1, 3)])
        assert pres.join(x, y) == JoinResult.finite(((0, 2), (1, 3)))
        assert pres.join(pres.canon([(0, 1)]), x) == JoinResult.finite(x)

    def test_direct_sum_vertex_group(self):
        pres = GraphProduct(Graph(2, []), [DirectSum((IntGroup(), IntGroup())), IntGroup()])
        a, b, x = pres.canon([(0, (1, 0))]), pres.canon([(0, (0, 1))]), pres.canon([(0, (1, 0)), (1, 2)])
        assert pres.join(a, b) == JoinResult.finite(pres.canon([(0, (1, 1))]))
        assert pres.join(x, b).is_infinite
        ball, big = pres.enumerate_ball(2), pres.enumerate_ball(4)
        finite = 0
        for u in ball:
            for v in ball:
                r = pres.join(u, v)
                finite += r.is_finite
                if r.is_finite:
                    assert oracle_join(big, u, v) == r
                else:
                    assert not (big.leq_row(big.position(u)) & big.leq_row(big.position(v))).any()
        assert len(ball) < finite < len(ball) ** 2

    @pytest.mark.parametrize("pres", [PATH3, NOEDGE, COMPLETE], ids=lambda p: p.name)
    def test_join_matches_oracle_ball4(self, pres):
        ball = ball_of(pres.name, 4)
        big = ball_of(pres.name, 6)
        for x in ball:
            for y in ball:
                r = pres.join(x, y)
                o = oracle_join(big, x, y)
                if r.is_finite and r.value in big:
                    assert o == r
                else:
                    assert not o.is_finite

    def test_vertex_law_of_recursion_layers(self):
        # Each layer joins the rests (x', y') of a pair, and these lie in the
        # ball again, so checking the support law on every pair of the ball
        # checks it on every layer.
        ball = ball_of(PATH3.name, 3)
        for x in ball:
            for y in ball:
                result = PATH3._join(x, y)
                if result.is_finite:
                    assert vertex_support(result.value) <= vertex_support(x) | vertex_support(y)


class TestPhi:
    def test_componentwise_products(self):
        x = NOEDGE.canon([zgen(0, 1), zgen(1, 1), zgen(0, 1)])
        fx = NOEDGE.phi(x)
        assert fx == (zgen(0, 2)[1], zgen(1, 1)[1])
        assert NOEDGE.phi(()) == (NOEDGE.vertices[0].identity(), NOEDGE.vertices[1].identity())

    def test_single_syllable(self):
        x = PATH3.canon([zgen(0, 1)])
        assert PATH3.phi(x) == (zgen(0, 1)[1], 0, 0)

    def test_nested_vertex_presentations(self):
        # Vertex groups may be any presentation, here a rank-2 free group.
        inner = FreeGroup(2, ("a", "b"))
        pres = GraphProduct(Graph(2, [(0, 1)]), [inner, FreeGroup(1)])
        x = pres.canon([(0, inner.parse("a b")), (1, ((0, 1),))])
        y = pres.canon([(0, inner.parse("a"))])
        assert pres.leq(y, x)
        r = pres.join(y, pres.canon([(1, ((0, 1),))]))
        assert r.is_finite


class TestGrammar:
    def test_round_trip(self):
        for pres in (PATH3, NOEDGE):
            for x in ball_of(pres.name, 3):
                assert pres.parse(pres.canonical_str(x)) == x

    def test_malformed(self):
        with pytest.raises(PresentationError):
            PATH3.parse("[v0: a] junk")
        with pytest.raises(PresentationError):
            PATH3.parse("[v7: a]")

    @pytest.mark.parametrize("text", ["[v7: a] junk", "[v7: a] junk [v0: a]", "[v0: a]x[v7: a]"])
    def test_malformed_text_before_a_bad_vertex(self, text):
        with pytest.raises(PresentationError, match="malformed syllable text"):
            PATH3.parse(text)


_SYLLABLE_RE = re.compile(r"\[\s*v(\d+)\s*:\s*([^\]]*)\]")


def parse_reference(pres, text):
    """Graph element text read by the syllable loop that checked each gap, as before the whole-text check."""
    stripped = text.strip()
    if stripped == "e":
        return ()
    tokens, end = [], 0
    for m in _SYLLABLE_RE.finditer(stripped):
        if stripped[end:m.start()].strip():
            break
        tokens.append(m.groups())
        end = m.end()
    if stripped[end:].strip():
        raise PresentationError(f"malformed syllable text {text!r}; expected [vI: word] tokens")
    syllables = []
    for v_text, word in tokens:
        v = int(v_text)
        pres._check_vertex(v)
        syllables.append((v, pres.vertices[v].parse(word.strip())))
    return pres.canon(syllables)


def parsed(parse, text):
    try:
        return parse(text)
    except PresentationError as err:
        return f"error: {err}"


FRAGMENTS = (
    "[v0: a]", "[v1: a^-1]", "[v2: a^2 a^-1]", "[v1: e]", "[v3: a]", "[v9: a]", "[ v0 : a ]", "[v\u0661: a]",
    "e", "junk", "x", "[", "]", "[v0:", "v1", ":", "a", " ", " ", "\n", "\t", "[v0: [v1: a]", "[v1: b]",
    "[v0:   a]", "[v1:\t \na ]", "[v2:  ]",
)
GRAPH_TEXTS = (
    "", " ", "e", " e\n", "e e", "[v0: a] junk", "junk [v0: a]", "[v0: a] x [v1: a]", "[v0: a", "[v0: a] [v1: a",
    "[v0: [v1: a]", "[v0: a] junk [v9: a]", "junk [v9: a]", "[v9: a] junk", "[v1: e]", "[v1: e] e",
    "[v0: a]\n[v1: a^-1]\n", "\n[v2: a]\t[v0: a a]", "[v0:a][v1:a]", "[v0: a]]", "[[v0: a]", "[v9: a]",
    "[v0:   a]   [v1:  a^-1]", "[v0:  ]", "[v0:   a] [v1:  a] junk",
)


class TestGrammarReference:
    """The whole-text check reads every graph text as the syllable loop did, errors and messages included."""

    @pytest.mark.parametrize("text", GRAPH_TEXTS)
    def test_listed_texts(self, text):
        for pres in (PATH3, pres_of(SQUARE4)):
            assert parsed(pres.parse, text) == parsed(lambda t: parse_reference(pres, t), text)

    def test_seeded_fragments_match_the_reference(self):
        rng = random.Random(11)
        for pres in (PATH3, pres_of(SQUARE4)):
            for _ in range(3000):
                text = rng.choice(("", " ")).join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(7)))
                assert parsed(pres.parse, text) == parsed(lambda t: parse_reference(pres, t), text), text

    @pytest.mark.parametrize("tail", [" junk", " [v0: a"])
    def test_long_malformed_text_fails_fast(self, tail):
        # Each syllable must match the whole-text pattern in one way only;
        # otherwise a failed match backtracks through 3^40 combinations.  A
        # regex match cannot be interrupted, so it runs in a child process.
        text = "[v0:  a] " * 40 + tail
        script = (
            "import sys; from wqlat.order import PresentationError; from wqlat.presets import get_presentation\n"
            "try:\n    get_presentation('graph:path3').parse(sys.argv[1])\n"
            "except PresentationError as err:\n    print(err)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wqlat.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, text], capture_output=True, text=True, env=env, timeout=30)
        assert done.stdout.strip() == f"malformed syllable text {text!r}; expected [vI: word] tokens"
        assert done.stdout.strip() == parsed(lambda t: parse_reference(PATH3, t), text)[len("error: "):]


class TestJsonConfig:
    def test_custom_graph_from_file(self, tmp_path):
        import json

        from wqlat.presets import get_presentation

        config = tmp_path / "square.json"
        config.write_text(
            json.dumps({"vertices": ["free:2", "free:1", "free:1"], "edges": [[0, 1], [1, 2]]})
        )
        pres = get_presentation(f"graph:{config}")
        assert pres.graph.n_vertices == 3
        assert pres.graph.adjacent(0, 1) and not pres.graph.adjacent(0, 2)
        x = pres.parse("[v1: a] [v0: a b]")
        assert pres.canonical_str(x) == "[v0: a b] [v1: a]"
        assert pres.join(pres.parse("[v0: a]"), pres.parse("[v1: a]")).is_finite

    def test_unknown_graph_preset(self):
        from wqlat.presets import get_presentation

        with pytest.raises(PresentationError):
            get_presentation("graph:decagon")


class TestDirectSumTarget:
    def test_componentwise_laws(self):
        from wqlat.order import DirectSum, IntGroup, JoinResult

        ds = DirectSum((IntGroup(), IntGroup()))
        assert ds.mul((1, 2), (3, -1)) == (4, 1)
        assert ds.inv((1, -2)) == (-1, 2)
        assert ds.is_positive((0, 3)) and not ds.is_positive((-1, 3))
        assert ds.leq((0, 1), (2, 1))
        assert ds.join((0, 5), (3, 1)) == JoinResult.finite((3, 5))
        assert ds.canonical_str((2, 0)) == "(2, 0)"

    def test_vertexwise_target_propagates_infinite(self):
        target = NOEDGE.phi_target()
        a = NOEDGE.vertices[0].parse("a")
        b = NOEDGE.vertices[1].parse("a")
        e0, e1 = NOEDGE.vertices[0].identity(), NOEDGE.vertices[1].identity()
        assert target.join((a, e1), (e0, b)).is_finite
        two = NOEDGE.vertices[0].parse("a^2")
        assert target.join((a, b), (two, b)).is_finite
