"""The stable-letter layer shared by Baumslag-Solitar groups and HNN extensions.

``canon_stream`` and ``letters_to_stream`` below are the Baumslag-Solitar
normal form as it was before the family moved onto ``StableLetterCone``
(pinch elimination, then one exponent-ranging pass), kept as the reference
that the one-letter ``_push_t`` step must reproduce.  The chain digests
were recorded from that version; its CLI reports are pinned in
``tests/golden.txt``.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from wqlat.baumslag import A, B, BaumslagSolitar, BsParams
from wqlat.controlled import fibers
from wqlat.hnn import HnnExtension, StableLetterCone
from wqlat.order import oracle_join

from conftest import ball_of, fiber_of, pres_of


def canon_stream(params: BsParams, exps, eps):
    """Canonical form of an alternating syllable stream (not yet reduced)."""
    c, d = params.c, params.d_signed
    sexps = [exps[0]]
    seps: list[int] = []
    for t, eps_t in enumerate(eps):
        if seps and seps[-1] == -eps_t:
            m = sexps[-1]
            if eps_t == -1 and m % c == 0:
                # a b^{jc} a^-1 -> b^{j d'}
                sexps.pop()
                seps.pop()
                sexps[-1] += (m // c) * d
                sexps[-1] += exps[t + 1]
                continue
            if eps_t == 1 and m % d == 0:
                # a^-1 b^{j d'} a -> b^{jc}
                sexps.pop()
                seps.pop()
                sexps[-1] += (m // d) * c
                sexps[-1] += exps[t + 1]
                continue
        seps.append(eps_t)
        sexps.append(exps[t + 1])
    # Exponent ranging: left to right, carries move rightward and never
    # create a new pinch (they preserve residues mod c and mod |d'|).
    for i, e in enumerate(seps):
        m = sexps[i]
        if e == 1:
            s = m % abs(d)
            sexps[i] = s
            sexps[i + 1] += ((m - s) // d) * c
        else:
            s = m % c
            sexps[i] = s
            sexps[i + 1] += ((m - s) // c) * d
    return (tuple(sexps), tuple(seps))


def letters_to_stream(letters):
    exps = [0]
    eps: list[int] = []
    for gen, sign in letters:
        if gen == B:
            exps[-1] += sign
        elif gen == A:
            eps.append(sign)
            exps.append(0)
        else:
            raise ValueError("alphabet is {a, b}")
    return exps, eps


def reference_mul(params, x, y):
    (xe, xs), (ye, ys) = x, y
    return canon_stream(params, list(xe[:-1]) + [xe[-1] + ye[0]] + list(ye[1:]), list(xs) + list(ys))


def reference_inv(params, x):
    xe, xs = x
    return canon_stream(params, [-m for m in reversed(xe)], [-e for e in reversed(xs)])


FUZZ_PAIRS = [(1, 2), (2, 3), (2, -3), (1, -1), (3, -2), (4, 6), (3, 1), (2, -1), (1, 1), (5, -7), (6, 4)]


@pytest.mark.parametrize("c,d", FUZZ_PAIRS, ids=lambda v: str(v))
def test_push_matches_reference_stream(c, d):
    pres, params = BaumslagSolitar(c, d), BsParams(c, d)
    rng = random.Random(1000 * c + d)

    def stream():
        return [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(14))]

    for _ in range(2000):
        u, v = stream(), stream()
        x, y = canon_stream(params, *letters_to_stream(u)), canon_stream(params, *letters_to_stream(v))
        assert pres.normal_form(u) == x
        assert pres.mul(x, y) == reference_mul(params, x, y)
        assert pres.inv(x) == reference_inv(params, x)


SHARED = ("normal_form", "_letters", "_extend", "mul", "inv", "canonical_str", "order_matrix", "height",
          "morphism", "stem", "join_table", "_join", "lambda_witness")


@pytest.mark.parametrize("name", SHARED)
def test_shared_methods_live_on_the_base_only(name):
    assert name in StableLetterCone.__dict__
    assert name not in HnnExtension.__dict__ and name not in BaumslagSolitar.__dict__


# -- law suites -----------------------------------------------------------------

# preset -> (radius of the operand ball, radius of the oracle ball)
LAW_PRESETS = {
    "bs:1,2": (3, 5),
    "bs:2,3": (3, 5),
    "bs:2,-3": (3, 5),
    "bs:1,-1": (3, 5),
    "bs:3,-2": (3, 5),
    "hnn+:x,y@x,y": (2, 4),
    "hnn+:xy,yx@x,y": (2, 4),
    "hnn-:x,y@x,y": (2, 4),
    "hnn-:xy,x@x,y": (2, 4),
}

signed = st.lists(st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))), max_size=12)


def element(pres, letters):
    """Normal form of a signed stream, its letters folded onto the alphabet."""
    n = len(pres.gen_names)
    return pres.normal_form([(g % n, s) for g, s in letters])


@pytest.mark.parametrize("name", LAW_PRESETS)
class TestStableLetterLaws:
    @given(signed)
    def test_print_parse_round_trip(self, name, letters):
        pres = pres_of(name)
        x = element(pres, letters)
        assert pres.parse(pres.canonical_str(x)) == x

    @given(signed)
    def test_letters_multiply_back(self, name, letters):
        pres = pres_of(name)
        x = element(pres, letters)
        assert pres.normal_form(pres._letters(x)) == x

    @given(signed)
    def test_cone_meets_its_inverse_in_the_identity(self, name, letters):
        pres = pres_of(name)
        x = element(pres, letters)
        if pres.is_positive(x) and pres.is_positive(pres.inv(x)):
            assert x == pres.identity()

    @given(signed)
    def test_positive_witness_multiplies_back(self, name, letters):
        pres = pres_of(name)
        x = element(pres, letters)
        witness = pres.positive_witness(x)
        assert (witness is not None) == pres.is_positive(x)
        if witness is not None:
            assert all(sign == 1 for _, sign in witness)
            assert pres.normal_form(witness) == x

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_join_agrees_with_the_oracle(self, name, i, j):
        pres = pres_of(name)
        small, large = LAW_PRESETS[name]
        ball, big = ball_of(name, small), ball_of(name, large)
        x, y = ball.elements[i % len(ball)], ball.elements[j % len(ball)]
        r = pres.join(x, y)
        if r.is_finite and r.value in big:
            assert oracle_join(big, x, y) == r
        elif r.is_infinite:
            assert not oracle_join(big, x, y).is_finite


# -- chains recorded from the stream implementation ------------------------------

# preset -> (radius, sha256 of the repr of [[chain(n) for n in 0..6] for every
# chain of every height present in the ball, heights ascending], chain count)
CHAIN_DIGESTS = {
    "bs:2,-3": (6, "f3daa84aae6f1843b97e3759d7514974aa837977c87dce57a486c6214f262fdf", 52),
    "bs:1,-1": (6, "78ebbf4d334ac8427533cd6847f777f3278aef42a4e885c79cbfd066c758da7b", 7),
    "bs:3,-2": (6, "c9804a657c929b1f6359591fcc71aa47803dba94969a83f7ba90fbf3a5417cb9", 33),
    "hnn-:x,y@x,y": (4, "2a56a8dc614af92bb7eb528d69e5a9e87663e4c55bdd0f0c05278e992449067b", 27),
    "hnn-:xy,x@x,y": (4, "66be222e9c9169ce4a39df3ffacb60b39b37f992bcbb794f607d191df5781657", 36),
}


@pytest.mark.parametrize("name", CHAIN_DIGESTS)
def test_lambda_chains_unchanged(name):
    radius, digest, count = CHAIN_DIGESTS[name]
    pres, ball = pres_of(name), ball_of(name, radius)
    by_height = sorted(fibers(pres.morphism(), ball).items())
    chains = [[chain(n) for n in range(7)] for q, fiber in by_height for _, chain in pres.lambda_witness(q, fiber)]
    assert (hashlib.sha256(repr(chains).encode()).hexdigest(), len(chains)) == (digest, count)


def test_lambda_labels_are_the_stems():
    pres = pres_of("bs:2,-3")
    labels = [label for label, _ in pres.lambda_witness(2, fiber_of("bs:2,-3", 6, 2))]
    assert labels == ["a a", "a b a", "a b^2 a", "b a a", "b a b a", "b a b^2 a", "b^2 a a", "b^2 a b a", "b^2 a b^2 a"]
