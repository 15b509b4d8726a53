"""One pass over an element: closed forms and loops against the searches,
recursions and letter-at-a-time products they replaced.

The references below are those algorithms as they were:

* ``reference_w_power_decomposition`` and ``reference_double_coset_positive``,
  the windowed searches of the HNN- positivity rule;
* ``reference_witness``, the HNN- witness that recursed once per t-letter
  and rebuilt the prefix at each level;
* ``reference_coset_rep``, which tried every prefix length of u;
* ``reference_normal_form``, one part product per base letter;
* ``reference_graph_join``, the initial-vertex recursion of graph joins;
* ``reference_sd_parse``, the semidirect parse with one product per letter.

Each is fuzzed against the code that replaced it, and the inputs on which
the old code failed or stalled are regression tests.
"""

import json
import math
import random

import pytest

from wqlat.hnn import MINUS, HnnExtension, coset_rep, strip_powers
from wqlat.order import JoinResult, PresentationError
from wqlat.presets import get_presentation
from wqlat.words import FreeGroup, format_word, is_positive_word, parse_word, reduce_word, word_inv, word_mul, word_pow

from conftest import ball_of, pres_of

HNN_PRESETS = (
    "hnn-:x,y@x,y", "hnn-:xy,x@x,y", "hnn-:xy,yx@x,y", "hnn-:x,yx@x,y",
    "hnn+:x,y@x,y", "hnn+:xy,x@x,y", "hnn+:xy,yx@x,y", "hnn+:x,yx@x,y",
)
MINUS_PRESETS = tuple(name for name in HNN_PRESETS if name.startswith("hnn-"))
STABLE_PRESETS = HNN_PRESETS + ("bs:1,2", "bs:2,3", "bs:2,-3", "bs:3,-2", "bs:1,-1")
GRAPH_PRESETS = ("graph:path3", "graph:noedge2", "graph:complete2")
SD_PRESETS = ("sd:swap2", "sd:perm3", "sd:phi-ab", "sd:nonexample")


def reference_w_power_decomposition(pres, h):
    """m with h = w^m q for positive q, scanning a trimmed window."""
    bound = math.ceil(len(h) / len(pres.w)) + 1
    for m in sorted(range(-bound, bound + 1), key=abs):
        if is_positive_word(word_mul(word_pow(pres.w, -m), h)):
            return m
    return None


def reference_double_coset_positive(pres, h):
    """(m, n) with w^m h u^n positive, or None within the trimmed window."""
    mb = math.ceil(len(h) / len(pres.w)) + 1
    nb = math.ceil(len(h) / len(pres.u)) + 1
    for m in sorted(range(-mb, mb + 1), key=abs):
        wh = word_mul(word_pow(pres.w, m), h)
        for n in sorted(range(-nb, nb + 1), key=abs):
            if is_positive_word(word_mul(wh, word_pow(pres.u, n))):
                return m, n
    return None


def reference_witness(pres, x):
    """The MINUS witness by recursion on the number of t-letters."""
    if not pres.is_positive(x):
        return None
    parts, eps = x
    k = len(eps)
    if k == 0:
        return tuple(parts[0])
    m_k = reference_w_power_decomposition(pres, parts[-1])
    q_k = word_mul(word_pow(pres.w, -m_k), parts[-1])
    if k == 1:
        return tuple(parts[0]) + pres._t_w_block(m_k) + tuple(q_k)
    m_star, n_star = reference_double_coset_positive(pres, parts[-2])
    tail = word_mul(parts[-2], word_pow(pres.u, n_star))
    prefix = pres._extend([parts[0]], [], zip([1] * (k - 1), parts[1:-2] + (tail,)))
    head = reference_witness(pres, prefix)
    return tuple(head) + pres._t_w_block(n_star + m_k) + tuple(q_k)


def reference_coset_rep(u, h):
    """The coset representative, re-anchored by trying every prefix length of u."""
    h0, m = strip_powers(h, u)
    if not h0:
        return h0, m
    last = h0[-1]
    if last == u[-1]:
        return h0, m
    if last == (u[0][0], -u[0][1]):
        for blen in range(len(u) - 1, 0, -1):
            beta_inv = word_inv(u[:blen])
            if len(beta_inv) <= len(h0) and h0[-blen:] == beta_inv:
                return word_mul(h0[: len(h0) - blen], u[blen:]), m - 1
        raise AssertionError("unreachable: cancellation without a matching prefix")
    return h0, m


def reference_normal_form(pres, letters):
    """One ``_push_t`` per stable letter and one part product per base letter."""
    parts, eps = [pres.unit], []
    for letter in letters:
        if letter[0] == pres.t_index:
            pres._push_t(parts, eps, letter[1])
        else:
            parts[-1] = pres._part_mul(parts[-1], pres._part_of([letter]))
    return tuple(parts), tuple(eps)


def reference_graph_join(pres, x, y):
    """The initial-vertex recursion, with the final value checked once."""

    def formula(x, y):
        if not (x and y):
            return JoinResult.finite(x or y)
        vertex = x[0][0]
        x_i, x_rest = pres.initial_split(x, vertex)
        y_i, y_rest = pres.initial_split(y, vertex)
        j_i = pres.vertices[vertex]._join(x_i, y_i)
        j_rest = formula(x_rest, y_rest) if j_i.is_finite else j_i
        if not j_rest.is_finite:
            return j_rest
        return JoinResult.finite(pres.mul(((vertex, j_i.value),), j_rest.value))

    result = formula(x, y)
    if x and y and result.is_finite and not (pres.leq(x, result.value) and pres.leq(y, result.value)):
        return JoinResult.infinite()
    return result


def reference_sd_parse(pres, text):
    """The semidirect parse as one ``mul`` per letter."""
    out = pres.identity()
    for gen, sign in parse_word(text, pres.gen_names):
        out = pres.mul(out, ((), sign) if gen == pres.base.n_gens else (((gen, sign),), 0))
    return out


def random_word(rng, n_gens, max_len):
    return reduce_word([(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))])


def random_negative_word(rng, pres, max_len):
    """s^-1 for s built from pieces of u, w and single letters, so that long matches occur."""
    pieces, s, target = [pres.u, pres.w, ((0, 1),), ((1, 1),)], (), rng.randrange(max_len + 1)
    while len(s) < target:
        s += rng.choice(pieces)
    return word_inv(s)


@pytest.mark.parametrize("name", MINUS_PRESETS)
def test_double_coset_closed_form_matches_the_window(name):
    pres, rng = get_presentation(name), random.Random(name)
    for i in range(1500):
        h = random_negative_word(rng, pres, 9) if i % 3 == 0 else random_word(rng, 2, 9)
        assert pres.double_coset_positive(h) == reference_double_coset_positive(pres, h), h
        assert pres.w_power_decomposition(h) == reference_w_power_decomposition(pres, h), h


@pytest.mark.parametrize("u_text", ["x", "x y", "x x", "x y x", "x y^2 x y"])
def test_coset_rep_matches_the_prefix_length_loop(u_text):
    u, rng = FreeGroup(2, ("x", "y")).parse(u_text), random.Random(u_text)
    for _ in range(2000):
        h = word_mul(random_word(rng, 2, 8), word_pow(u, rng.randrange(-3, 4)))
        h = word_mul(h, word_inv(u[: rng.randrange(len(u) + 1)]))
        assert coset_rep(u, h) == reference_coset_rep(u, h), h


@pytest.mark.parametrize("name", HNN_PRESETS)
def test_witness_sweep_matches_the_recursion(name):
    pres, rng = get_presentation(name), random.Random(name)
    ball = ball_of(name, 4)
    samples = list(ball) + [pres.normal_form(random_word(rng, 3, 14)) for _ in range(400)]
    for x in samples:
        witness = pres.positive_witness(x)
        if pres.mode == MINUS:
            assert witness == reference_witness(pres, x)
        if witness is not None:
            assert is_positive_word(witness) and pres.normal_form(witness) == x


@pytest.mark.parametrize("name", STABLE_PRESETS)
def test_run_normal_form_matches_letter_at_a_time(name):
    pres, rng = get_presentation(name), random.Random(name)
    n_gens = len(pres.gen_names)
    for _ in range(800):
        # Long base runs, so that whole runs cancel and pinch.
        letters = [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(rng.randrange(20))]
        letters = [letter for letter in letters for _ in range(rng.choice((1, 1, 3)))]
        assert pres.normal_form(letters) == reference_normal_form(pres, letters)


@pytest.mark.parametrize("name", SD_PRESETS)
def test_sd_parse_matches_one_product_per_letter(name):
    pres, rng = get_presentation(name), random.Random(name)
    for _ in range(600):
        text = format_word(random_word(rng, len(pres.gen_names), 14), pres.gen_names)
        assert pres.parse(text) == reference_sd_parse(pres, text)


def test_bs_run_keeps_its_alphabet_refusal():
    pres = pres_of("bs:2,3")
    with pytest.raises(PresentationError, match=r"alphabet is \{a, b\}"):
        pres.normal_form([(1, 1), (2, 1), (0, 1)])


@pytest.fixture(scope="module")
def mixed_graphs(tmp_path_factory):
    """Graph files whose vertices are Baumslag-Solitar and HNN+ cones."""
    root = tmp_path_factory.mktemp("graphs")
    specs = {
        "bs-hnn.json": {"vertices": ["bs:2,3", "hnn+:x,y@x,y", "free:1"], "edges": [[0, 1]]},
        "hnn-free.json": {"vertices": ["hnn+:xy,x@x,y", "free:2", "bs:1,2"], "edges": [[1, 2]]},
        "noedge-bs.json": {"vertices": ["bs:1,2", "bs:2,3"], "edges": []},
    }
    names = []
    for file, spec in specs.items():
        (root / file).write_text(json.dumps(spec))
        names.append(f"graph:{root / file}")
    return names


def graph_join_pairs(ball, rng, count):
    els = ball.elements
    for _ in range(count):
        yield rng.choice(els), rng.choice(els)


@pytest.mark.parametrize("name", GRAPH_PRESETS)
def test_graph_join_loop_matches_the_recursion(name):
    pres, rng = pres_of(name), random.Random(name)
    ball = ball_of(name, 4)
    for x, y in graph_join_pairs(ball, rng, 1500):
        assert pres._join(x, y) == reference_graph_join(pres, x, y)


def test_graph_join_loop_matches_the_recursion_on_stable_letter_vertices(mixed_graphs):
    for name in mixed_graphs:
        pres, rng = get_presentation(name), random.Random(name)
        ball = pres.enumerate_ball(3, cap=3)
        for x, y in graph_join_pairs(ball, rng, 800):
            assert pres._join(x, y) == reference_graph_join(pres, x, y)


# -- the inputs on which the old code failed or stalled ----------------------


def test_long_stable_power_has_its_witness():
    pres = get_presentation("hnn-:x,y@x,y")
    x = pres.parse("t^1200")
    assert pres.positive_witness(x) == ((pres.t_index, 1),) * 1200


def test_long_alternating_graph_join():
    pres = get_presentation("graph:noedge2")
    x = pres.parse(" ".join(["[v0: a] [v1: a]"] * 700))
    y = pres.parse(" ".join(["[v0: a] [v1: a]"] * 699 + ["[v0: a] [v1: a^2]"]))
    assert pres.join(x, y) == JoinResult.finite(y)
    z = pres.parse(" ".join(["[v0: a] [v1: a]"] * 699 + ["[v0: a^2]"]))
    assert pres.join(x, z).is_infinite


def test_long_negative_middle_part_is_decided():
    pres = get_presentation("hnn-:x,y@x,y")
    assert not pres.is_positive(pres.parse("t x^-3000 y^-1 t"))
    x = pres.parse("t y^-3000 t")
    assert pres.is_positive(x)
    assert pres.positive_witness(x) == ((0, 1),) * 3000 + ((pres.t_index, 1),) * 2


def test_long_base_run_parses_in_one_product():
    pres = get_presentation("hnn-:x,y@x,y")
    x = pres.parse("t x^-65536")
    assert x == (((), ((0, -1),) * 65536), (1,))
    assert pres.canonical_str(x) == "t x^-65536"


def test_double_coset_of_a_long_negative_word():
    base = FreeGroup(2, ("x", "y"))
    pres = HnnExtension(base, base.parse("x"), base.parse("y"), MINUS)
    # h = s^-1: w^m cancels the y-suffix of s from the left, u^n its x-prefix from the right.
    h = word_inv(base.parse("x^300 y^200"))
    assert pres.double_coset_positive(h) == (200, 300)
    h = word_inv(base.parse("y^200 x^300"))
    assert pres.double_coset_positive(h) is None
