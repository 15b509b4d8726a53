import random

import numpy as np
import pytest

from wqlat.order import PresentationError
from wqlat.toeplitz import (
    PartialInjection,
    SafeRegion,
    check_nica,
    diagonal_expectation,
    matrix_units_check,
    pair_operator,
    spanning_product,
    toeplitz_op,
)

from conftest import ball_of, fiber_of, pres_of


class TestPartialInjection:
    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            PartialInjection(3, {0: 1, 2: 1})

    def test_compose_and_adjoint(self):
        f = PartialInjection(4, {0: 1, 1: 2})
        g = PartialInjection(4, {2: 0})
        assert f.compose(g) == PartialInjection(4, {2: 1})
        assert f.adjoint() == PartialInjection(4, {1: 0, 2: 1})
        assert f.adjoint().adjoint() == f

    def test_dense_export_matches_composition(self):
        rng = random.Random(3)
        for _ in range(50):
            perm = list(range(6))
            rng.shuffle(perm)
            f = PartialInjection(6, {i: perm[i] for i in range(6) if rng.random() < 0.6})
            g = PartialInjection(6, {perm[i]: i for i in range(6) if rng.random() < 0.6})
            assert np.array_equal(
                f.compose(g).to_dense(), f.to_dense() @ g.to_dense()
            )


class TestToeplitzOps:
    def test_identity_shift(self):
        ball = ball_of("free:2", 2)
        assert toeplitz_op(ball, ball.pres.identity()) == PartialInjection.identity(len(ball))

    def test_free_shift_domain(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 2)
        op = toeplitz_op(ball, pres.parse("a"))
        dom = {pres.canonical_str(ball.elements[i]) for i in op.domain()}
        img = {pres.canonical_str(ball.elements[j]) for j in op.image()}
        assert dom == {"e", "a", "b"}
        assert img == {"a", "a^2", "a b"}

    def test_rejects_non_positive(self):
        ball = ball_of("free:2", 2)
        with pytest.raises(PresentationError):
            toeplitz_op(ball, ball.pres.parse("a^-1"))

    def test_semigroup_homomorphism_on_safe(self):
        for name in ("free:2", "bs:2,3", "hnn-:x,y@x,y"):
            pres = pres_of(name)
            ball = ball_of(name, 6)
            safe = SafeRegion.of(ball, 2)
            small = [x for x in ball_of(name, 2)]
            for x in small:
                for y in small:
                    lhs = toeplitz_op(ball, x).compose(toeplitz_op(ball, y)).restrict(safe.indices)
                    rhs = toeplitz_op(ball, pres.mul(x, y)).restrict(safe.indices)
                    assert lhs == rhs, name

    def test_isometry_on_safe(self):
        pres = pres_of("bs:2,-3")
        ball = ball_of("bs:2,-3", 6)
        safe = SafeRegion.of(ball, 3)
        for x in ball_of("bs:2,-3", 3):
            op = toeplitz_op(ball, x)
            assert op.adjoint().compose(op).restrict(safe.indices) == PartialInjection.identity(
                len(ball)
            ).restrict(safe.indices)


class TestDiagonalExpectation:
    def test_shift_has_no_fixed_points(self):
        ball = ball_of("free:2", 3)
        op = toeplitz_op(ball, ball.pres.parse("a"))
        assert diagonal_expectation(op).is_zero()

    def test_fixes_identity(self):
        ident = PartialInjection.identity(5)
        assert diagonal_expectation(ident) == ident

    def test_fixes_range_projections(self):
        ball = ball_of("free:2", 3)
        op = toeplitz_op(ball, ball.pres.parse("a b"))
        proj = op.compose(op.adjoint())
        assert proj.is_partial_identity()
        assert diagonal_expectation(proj) == proj

    def test_idempotent(self):
        ball = ball_of("bs:2,-3", 4)
        op = toeplitz_op(ball, ball.pres.parse("b a"))
        once = diagonal_expectation(op)
        assert diagonal_expectation(once) == once


class TestNica:
    def test_no_common_upper_bound(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 6)
        safe = SafeRegion.of(ball, 3)
        r = check_nica(ball, safe, pres.parse("a"), pres.parse("b"))
        assert r["verdict"] == "pass" and r["join"].is_infinite

    def test_prefix_pair(self):
        pres = pres_of("free:2")
        ball = ball_of("free:2", 6)
        safe = SafeRegion.of(ball, 3)
        r = check_nica(ball, safe, pres.parse("a"), pres.parse("a b"))
        assert r["verdict"] == "pass" and r["join"].is_finite

    def test_bs_generator_pair(self):
        pres = pres_of("bs:1,2")
        ball = ball_of("bs:1,2", 6)
        safe = SafeRegion.of(ball, 3)
        r = check_nica(ball, safe, pres.parse("a"), pres.parse("b"))
        assert r["verdict"] == "pass"
        assert r["join"].value == pres.parse("a b")

    def test_truncation_guard(self):
        # b^-1 p leaves the radius-3 ball for some p >= b in it, so the
        # adjoint of T_b is cut off and the check must refuse to decide.
        pres = pres_of("bs:1,2")
        ball = ball_of("bs:1,2", 3)
        safe = SafeRegion.of(ball, 3)
        b = pres.parse("b")
        r = check_nica(ball, safe, pres.identity(), b)
        assert r["verdict"] == "truncated" and r["shift"] == b

    def test_rejects_negative_safe_radius(self):
        with pytest.raises(PresentationError):
            SafeRegion.of(ball_of("free:2", 2), -1)

    def test_fiber_orthogonality(self):
        for name in ("free:2", "bs:2,3", "scarparo"):
            pres = pres_of(name)
            mor = pres.morphism()
            ball = ball_of(name, 6)
            safe = SafeRegion.of(ball, 2)
            small = ball_of(name, 2)
            for p in small:
                for q in small:
                    if mor(p) != mor(q) and pres.join(p, q).is_infinite:
                        tp, tq = toeplitz_op(ball, p), toeplitz_op(ball, q)
                        assert tp.adjoint().compose(tq).restrict(safe.indices).is_zero()


class TestMatrixUnits:
    def chains(self, count):
        pres = pres_of("bs:2,-3")
        return pres, pres.lambda_witness(1, fiber_of("bs:2,-3", 6, 1))[:count]

    def test_single_class_is_idempotent(self):
        pres, chains = self.chains(1)
        ball = ball_of("bs:2,-3", 6)
        safe = SafeRegion.of(ball, 2)
        assert matrix_units_check(ball, safe, chains, 1)["ok"]

    def test_cross_terms_vanish(self):
        pres, chains = self.chains(2)
        ball = ball_of("bs:2,-3", 6)
        s0, s1 = chains[0][1](1), chains[1][1](1)
        e01 = pair_operator(ball, s0, s1)
        safe = SafeRegion.of(ball, 2)
        assert e01.compose(e01).restrict(safe.indices).is_zero()


class TestSpanningProduct:
    def test_equal_middle(self):
        pres = pres_of("free:2")
        mor = pres.morphism()
        p = pres.parse("a b")
        q = pres.parse("b a")
        got = spanning_product(mor, p, q, q, p)
        assert got == (p, p)

    def test_infinite_middle_vanishes(self):
        pres = pres_of("free:2")
        mor = pres.morphism()
        a, b = pres.parse("a"), pres.parse("b")
        assert spanning_product(mor, a, a, b, b) is None

    def test_bs_infinite_middle(self):
        pres = pres_of("bs:2,-3")
        mor = pres.morphism()
        ba, b2a = pres.parse("b a"), pres.parse("b^2 a")
        assert spanning_product(mor, ba, ba, b2a, b2a) is None

    def test_fiber_mismatch(self):
        pres = pres_of("free:2")
        mor = pres.morphism()
        with pytest.raises(PresentationError):
            spanning_product(mor, pres.parse("a"), pres.parse("a b"), pres.parse("b"), pres.parse("b"))

    def test_operator_consistency(self):
        pres = pres_of("bs:1,2")
        mor = pres.morphism()
        ball = ball_of("bs:1,2", 6)
        safe = SafeRegion.of(ball, 2)
        small = [x for x in ball_of("bs:1,2", 2)]
        rng = random.Random(9)
        fibers = {}
        for x in small:
            fibers.setdefault(mor(x), []).append(x)
        tuples = []
        for members in fibers.values():
            for p in members:
                for q in members:
                    tuples.append((p, q))
        for _ in range(60):
            p, q = rng.choice(tuples)
            r, s = rng.choice(tuples)
            got = spanning_product(mor, p, q, r, s)
            lhs = pair_operator(ball, p, q).compose(pair_operator(ball, r, s))
            if got is None:
                assert lhs.restrict(safe.indices).is_zero()
            else:
                rhs = pair_operator(ball, got[0], got[1])
                assert lhs.restrict(safe.indices) == rhs.restrict(safe.indices)
