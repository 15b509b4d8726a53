import pytest

from wqlat import order
from wqlat.order import (
    BallCapExceeded,
    DirectSum,
    ElementOutsideBall,
    IntGroup,
    JoinResult,
    PresentationError,
    check_weak_ql,
    oracle_join,
    verify_join,
)
from wqlat.presets import ACCEPTANCE_PRESETS
from wqlat.toeplitz import toeplitz_op
from wqlat.words import FreeGroup

from conftest import ball_of, pres_of


class TestBallEnumeration:
    def test_free_radius_two(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 2)
        names = {pres.canonical_str(x) for x in ball}
        assert names == {"e", "a", "b", "a^2", "a b", "b a", "b^2"}
        assert len(ball) == 7

    def test_scarparo_radius_two(self):
        pres = pres_of("scarparo")
        ball = ball_of("scarparo", 2)
        assert {pres.canonical_str(x) for x in ball} == {"e", "b", "b a", "b^2"}

    def test_radius_zero(self):
        for name in ("free:2", "bs:2,-3", "hnn-:x,y@x,y"):
            ball = ball_of(name, 0)
            assert list(ball) == [pres_of(name).identity()]

    def test_identity_at_index_zero(self):
        for name in ACCEPTANCE_PRESETS:
            ball = ball_of(name, 3)
            assert ball.position(pres_of(name).identity()) == 0

    def test_cap(self):
        with pytest.raises(BallCapExceeded):
            pres_of("free:2").enumerate_ball(7)
        pres_of("free:2").enumerate_ball(7, cap=7)

    @pytest.mark.parametrize("name,radius,size", [("free:2", 3, 15), ("scarparo", 3, 8), ("bs:2,3", 4, 30)])
    def test_element_cap(self, name, radius, size, monkeypatch):
        pres = pres_of(name)
        assert len(pres.enumerate_ball(radius)) == size
        monkeypatch.setattr(order, "BALL_ELEMENT_CAP", size)
        assert len(pres.enumerate_ball(radius)) == size
        monkeypatch.setattr(order, "BALL_ELEMENT_CAP", size - 1)
        with pytest.raises(BallCapExceeded, match=f"exceeds {size - 1} elements"):
            pres.enumerate_ball(radius)

    def test_element_cap_stops_the_enumeration(self, monkeypatch):
        # free:2 has 1 + 2 + 4 elements within radius 2: the first product
        # at radius 3 is the eighth insertion, past the cap, and the last.
        pres = FreeGroup(2)
        monkeypatch.setattr(order, "BALL_ELEMENT_CAP", 7)
        products = []
        monkeypatch.setattr(pres, "mul", lambda x, y: products.append(x) or FreeGroup.mul(pres, x, y))
        with pytest.raises(BallCapExceeded):
            pres.enumerate_ball(6, cap=6)
        assert len(products) == 2 + 4 + 1


class TestBallShift:
    PRESETS = (("hnn-:x,y@x,y", 4), ("bs:2,-3", 5), ("sd:phi-ab", 4))

    def test_matches_products_and_index(self):
        for name, radius in self.PRESETS:
            pres = pres_of(name)
            ball = ball_of(name, radius)
            misses = 0
            for x in ball_of(name, 2):
                want = [ball.index.get(pres.mul(x, p), -1) for p in ball.elements]
                got = toeplitz_op(ball, x).arr
                assert got.tolist() == want, (name, pres.canonical_str(x))
                misses += want.count(-1)
            assert misses, name

    def test_positivity_guard(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 3)
        assert toeplitz_op(ball, pres.parse("a^4")).is_zero()  # positive, off the ball
        with pytest.raises(PresentationError, match="not positive"):
            toeplitz_op(ball, pres.parse("a^-1"))


class TestJoinGuard:
    """IntGroup and DirectSum define only ``_join``, so ``join`` checks positivity."""

    def test_int_group(self):
        pres = IntGroup()
        assert pres.join(2, 5) == JoinResult.finite(5)
        with pytest.raises(PresentationError, match="-3 is not positive"):
            pres.join(-3, 2)
        assert pres._join(-3, 2) == JoinResult.finite(2)

    def test_direct_sum(self):
        pres = DirectSum((IntGroup(), IntGroup()))
        assert pres.join((1, 0), (0, 1)) == JoinResult.finite((1, 1))
        with pytest.raises(PresentationError, match=r"\(-1, 0\) is not positive"):
            pres.join((-1, 0), (0, 1))

    def test_direct_sum_calls_component_rules(self):
        free = pres_of("free:2")
        pres = DirectSum((IntGroup(), free))
        a, ab = free.parse("a"), free.parse("a b")
        assert pres._join((-1, a), (2, ab)) == JoinResult.finite((2, ab))
        assert pres._join((0, a), (0, free.parse("b"))).is_infinite


class TestDirectSumJoin:
    def test_infinite_wins_in_either_order(self):
        # sd:nonexample has no structural join (inconclusive); free:2 has
        # no common upper bound of a and b (infinite).
        nonexample, free = pres_of("sd:nonexample"), pres_of("free:2")
        na, nb = nonexample.parse("a"), nonexample.parse("b")
        fa, fb = free.parse("a"), free.parse("b")
        assert nonexample.join(na, nb).is_inconclusive and free.join(fa, fb).is_infinite
        assert DirectSum((nonexample, free)).join((na, fa), (nb, fb)).is_infinite
        assert DirectSum((free, nonexample)).join((fa, na), (fb, nb)).is_infinite

    def test_inconclusive_beats_finite_in_either_order(self):
        nonexample, free = pres_of("sd:nonexample"), pres_of("free:2")
        na, nb = nonexample.parse("a"), nonexample.parse("b")
        fa, fab = free.parse("a"), free.parse("a b")
        assert DirectSum((nonexample, free)).join((na, fa), (nb, fab)).is_inconclusive
        assert DirectSum((free, nonexample)).join((fa, na), (fab, nb)).is_inconclusive


class TestLeq:
    def test_free_prefix_order(self):
        pres = pres_of("free:2")
        assert pres.leq(pres.parse("a"), pres.parse("a b"))
        assert not pres.leq(pres.parse("a b"), pres.parse("a"))

    def test_generic_route_is_quotient_positivity(self):
        for name in ("free:2", "bs:2,3", "hnn-:x,y@x,y"):
            pres = pres_of(name)
            ball = ball_of(name, 3)
            for x in ball:
                for y in ball:
                    assert pres.leq(x, y) == pres.is_positive(pres.mul(pres.inv(x), y))


class TestOracle:
    def test_prefix_pair(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 4)
        r = oracle_join(ball, pres.parse("a"), pres.parse("a b"))
        assert r == JoinResult.finite(pres.parse("a b"))

    def test_empty_candidate_set_is_inconclusive(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 4)
        r = oracle_join(ball, pres.parse("a"), pres.parse("b"))
        assert r.is_inconclusive and r.radius == 4

    def test_bs12_join_of_generators(self):
        pres = pres_of("bs:1,2")
        ball = ball_of("bs:1,2", 6)
        a, b = pres.parse("a"), pres.parse("b")
        r = oracle_join(ball, a, b)
        assert r == JoinResult.finite(pres.parse("a b"))
        assert pres.parse("a b") == pres.parse("b^2 a")

    def test_element_outside_ball(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 2)
        with pytest.raises(ElementOutsideBall):
            oracle_join(ball, pres.parse("a^3"), pres.parse("a"))


class TestVerifyJoin:
    def test_accepts_true_join(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 4)
        assert verify_join(ball, pres.parse("a"), pres.parse("a b"), pres.parse("a b"))

    def test_rejects_non_minimal(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 4)
        assert not verify_join(ball, pres.parse("a"), pres.parse("a b"), pres.parse("a b a"))

    def test_bs12_generator_join(self):
        pres = pres_of("bs:1,2")
        ball = ball_of("bs:1,2", 6)
        assert verify_join(ball, pres.parse("a"), pres.parse("b"), pres.parse("a b"))


class TestWeakQlScan:
    def test_quasi_lattices_are_clean(self):
        for name in ("free:2", "scarparo"):
            assert check_weak_ql(ball_of(name, 4)) == []

    def test_nonexample_reports_witness_pair(self):
        pres = pres_of("sd:nonexample")
        findings = check_weak_ql(ball_of("sd:nonexample", 4))
        assert findings
        p, q = pres.metadata["witness_pair"]
        target = sorted([pres.canonical_str(p), pres.canonical_str(q)])
        hits = [f for f in findings if f["pair"] == target]
        assert len(hits) == 1
        bounds = sorted(pres.canonical_str(b) for b in pres.metadata["witness_bounds"])
        assert hits[0]["upper_bounds"] == bounds
        assert hits[0]["classification"] == "violation candidate within ball"


class TestSharedLaws:
    def test_partial_order_axioms_on_every_preset(self):
        import numpy as np

        for name in ACCEPTANCE_PRESETS:
            ball = ball_of(name, 4)
            n = len(ball)
            rel = ball.order()
            assert rel.diagonal().all(), name
            assert not (rel & rel.T & ~np.eye(n, dtype=bool)).any(), name
            closure = (rel.astype(int) @ rel.astype(int)) > 0
            assert not (closure & ~rel).any(), name

    def test_cone_meets_its_inverse_only_at_identity(self):
        for name in ACCEPTANCE_PRESETS:
            pres = pres_of(name)
            for x in ball_of(name, 4):
                if x != pres.identity():
                    assert not pres.is_positive(pres.inv(x)), name

    def test_left_invariance(self):
        for name in ("free:2", "scarparo", "bs:2,-3", "bs:2,3", "sd:swap2"):
            pres = pres_of(name)
            small = ball_of(name, 3)
            for x in small:
                for y in small:
                    if not pres.leq(x, y):
                        continue
                    for z in small:
                        assert pres.leq(pres.mul(z, x), pres.mul(z, y)), name

    def test_join_laws(self):
        for name in ACCEPTANCE_PRESETS:
            pres = pres_of(name)
            ball = ball_of(name, 3)
            big = ball_of(name, 5)
            e = pres.identity()
            for x in ball:
                assert pres.join(x, x) == JoinResult.finite(x), name
                assert pres.join(e, x) == JoinResult.finite(x), name
                for y in ball:
                    r, r2 = pres.join(x, y), pres.join(y, x)
                    assert r == r2 or (r.is_inconclusive and r2.is_inconclusive), name
                    if r.is_finite:
                        assert pres.is_positive(r.value), name
                        assert verify_join(big, x, y, r.value), name
