import json

import pytest

from wqlat.cli import main
from wqlat.controlled import (
    Morphism,
    check_decreasing_cover,
    check_join_preserving,
    check_order_preserving,
    check_sigma_axioms,
    fibers,
)
from wqlat.order import BallCapExceeded, IntGroup, PresentationError
from wqlat.presets import get_presentation

from conftest import ROOT, ball_of, fiber_of, pres_of

SIGMA_PRESETS = ["free:2", "scarparo", "bs:2,3", "hnn+:x,y@x,y", "graph:path3", "sd:swap2", "sd:phi-ab"]
LAMBDA_PRESETS = ["bs:2,-3", "bs:1,-1", "hnn-:x,y@x,y"]


def radius_for(pres):
    """Criterion 5's radii: graph products and HNN extensions at 3, the rest at 4."""
    return 3 if pres.name.startswith(("graph:", "hnn")) else 4


def kernel_cone(mor, ball):
    """Ball elements in the kernel of the morphism; order and join inherit."""
    e = mor.target.identity()
    return [x for x in ball if mor(x) == e]


class TestBasicLaws:
    @pytest.mark.parametrize("name", SIGMA_PRESETS + LAMBDA_PRESETS)
    def test_order_preserving(self, name):
        pres = pres_of(name)
        mor = pres.morphism()
        r = radius_for(pres)
        assert check_order_preserving(mor, ball_of(name, r)) == []

    @pytest.mark.parametrize("name", SIGMA_PRESETS + LAMBDA_PRESETS)
    def test_join_preserving(self, name):
        pres = pres_of(name)
        mor = pres.morphism()
        assert check_join_preserving(mor, ball_of(name, radius_for(pres)))["ok"]

    def test_order_reversing_map_breaks_every_strict_pair(self):
        # Negated length reverses the prefix order of free:2: each x < y is a failure, in ball order.
        pres, ball = pres_of("free:2"), ball_of("free:2", 2)
        mor = Morphism("negated length", pres, IntGroup(), lambda x: -len(x))
        strict = [(x, y) for x in ball for y in ball if x != y and pres.leq(x, y)]
        assert len(strict) == 10 and check_order_preserving(mor, ball) == strict

    def test_inconclusive_target_join_is_not_a_failure(self, tmp_path, capsys):
        # The nonexample's vertex has no structural join, so the target joins
        # of some open pairs are inconclusive: they count as such, and the
        # report counts them and is inconclusive.
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"vertices": ["sd:nonexample", "free:1"], "edges": [[0, 1]]}))
        pres = get_presentation(f"graph:{path}")
        report = check_join_preserving(pres.morphism(), pres.enumerate_ball(2))
        assert (len(report["failures"]), report["inconclusive"], report["ok"]) == (0, 115, True)
        assert main(["check-controlled", f"graph:{path}", "--radius", "2", "--json"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert (out["findings"], out["verdict"]) == ([{"join_inconclusive": 115}], "inconclusive")

    def test_undecided_separation_join_is_not_a_failure(self, capsys):
        # With no edge, the witnesses of the radius-2 free product hold three
        # pairs whose join the nonexample vertex leaves undecided, such as
        # [v0: a] [v1: a] and [v1: a] [v0: a]: both separation checks count
        # them and fail none, and the report is inconclusive.
        name = f"graph:{ROOT / 'tests' / 'nonexample_free_product.json'}"
        pres = get_presentation(name)
        mor, ball = pres.morphism(), pres.enumerate_ball(2)
        assert pres.join(pres.parse("[v0: a] [v1: a]"), pres.parse("[v1: a] [v0: a]")).is_inconclusive
        for report in (check_sigma_axioms(mor, pres.sigma_witness, ball),
                       check_decreasing_cover(mor, pres.lambda_witness, ball, 6)):
            assert (report["separation_failures"], report["separation_inconclusive"], report["ok"]) == ([], 3, True)
        for mode in ("sigma", "lambda"):
            assert main(["check-controlled", name, "--radius", "2", "--mode", mode, "--json"]) == 3
            out = json.loads(capsys.readouterr().out)
            assert out["findings"] == [{"join_inconclusive": 154}, {"separation_inconclusive": 3}]

    def test_hnn_plus_join_preservation_is_decided(self):
        pres = pres_of("hnn+:x,y@x,y")
        assert check_join_preserving(pres.morphism(), ball_of(pres.name, 3))["inconclusive"] == 0

    def test_homomorphism_spot_check(self):
        import random

        rng = random.Random(13)
        for name in SIGMA_PRESETS:
            pres = pres_of(name)
            mor = pres.morphism()
            ball = ball_of(name, 3)
            for _ in range(200):
                x, y = rng.choice(ball.elements), rng.choice(ball.elements)
                assert mor(pres.mul(x, y)) == mor.target.mul(mor(x), mor(y))


class TestSigmaSuites:
    @pytest.mark.parametrize("name", SIGMA_PRESETS)
    def test_axioms_pass(self, name):
        pres = pres_of(name)
        mor = pres.morphism()
        report = check_sigma_axioms(mor, pres.sigma_witness, ball_of(name, radius_for(pres)))
        assert report["ok"], report

    @pytest.mark.parametrize("name", SIGMA_PRESETS)
    def test_constant_chains_also_pass(self, name):
        pres = pres_of(name)
        mor = pres.morphism()
        report = check_decreasing_cover(mor, pres.lambda_witness, ball_of(name, radius_for(pres)), 4)
        assert report["ok"], report


class TestLambdaSuites:
    @pytest.mark.parametrize("name", LAMBDA_PRESETS)
    def test_axioms_pass(self, name):
        pres = pres_of(name)
        mor = pres.morphism()
        report = check_decreasing_cover(
            mor, pres.lambda_witness, ball_of(name, radius_for(pres)), 6
        )
        assert report["ok"], report

    def test_shallow_depth_flags_increase(self):
        pres = pres_of("bs:2,-3")
        mor = pres.morphism()
        report = check_decreasing_cover(mor, pres.lambda_witness, ball_of("bs:2,-3", 4), 0)
        assert report["increase_depth"]
        assert report["uncovered"]

    @pytest.mark.parametrize("name", LAMBDA_PRESETS)
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_uncovered_matches_pairwise_leq(self, name, depth):
        # An element is covered when it lies above chain(n) of some class for
        # some n <= depth, the last entry included.
        pres = pres_of(name)
        mor = pres.morphism()
        ball = ball_of(name, radius_for(pres))
        report = check_decreasing_cover(mor, pres.lambda_witness, ball, depth)
        by_image = fibers(mor, ball)
        expected = [
            x
            for x in ball
            if not any(
                pres.leq(chain(n), x)
                for _, chain in pres.lambda_witness(mor(x), by_image[mor(x)])
                for n in range(depth + 1)
            )
        ]
        assert sorted(x for _, x in report["uncovered"]) == sorted(expected)


class TestWitnessShapes:
    def test_bs_minimal_slice_enumerates_exponent_tuples(self):
        pres = pres_of("bs:2,3")
        stems = pres.sigma_witness(2, fiber_of("bs:2,3", 4, 2))
        # d^q stems at height q, every one ending in the a-letter.
        assert len(stems) == 9
        assert all(exps[-1] == 0 and len(eps) == 2 for exps, eps in stems)

    def test_bs_minimal_slice_is_capped(self):
        # 2^13 = 8192 witnesses is the cap itself; 2^14 is refused.
        pres = pres_of("bs:1,2")
        assert len(pres.sigma_witness(13, [])) == 8192
        with pytest.raises(BallCapExceeded, match="height 14 has 2\\^14 elements"):
            pres.sigma_witness(14, [])

    def test_hnn_minus_chains_extend_the_stems(self):
        from wqlat.words import word_pow

        pres = pres_of("hnn-:x,y@x,y")
        chains = pres.lambda_witness(1, fiber_of("hnn-:x,y@x,y", 3, 1))
        assert chains
        for label, chain in chains:
            s0, s3 = chain(0), chain(3)
            assert pres.height(s0) == 1
            # Later entries divide earlier ones by w-powers on the right.
            assert pres.mul(pres.inv(s3), s0) == pres.embed(word_pow(pres.w, 3))


class TestNegativeControl:
    def test_minimal_element_witness_fails_coverage_only(self):
        pres = pres_of("bs:1,-1")
        mor = pres.morphism()
        report = check_sigma_axioms(mor, pres.sigma_witness, ball_of("bs:1,-1", 4))
        assert not report["ok"]
        assert report["coverage_failures"]
        assert report["separation_failures"] == []
        # Every failure sits above height zero, where no minimal elements exist.
        assert all(q >= 1 for q, _ in report["coverage_failures"])

    def test_chain_witness_repairs_it(self):
        pres = pres_of("bs:1,-1")
        mor = pres.morphism()
        report = check_decreasing_cover(mor, pres.lambda_witness, ball_of("bs:1,-1", 4), 6)
        assert report["ok"], report


class TestHandMadeWitnesses:
    """One negative control per failure kind, each on a witness built by hand at height 0.

    The minimal-element check runs on bs:2,3, the chain checks on bs:2,-3.
    In both the height-0 fiber of the radius-3 ball is e, b, b^2, b^3, a
    chain; the family's own witness is kept at every other height.
    """

    NAMES = {"sigma": "bs:2,3", "lambda": "bs:2,-3"}

    def check(self, kind, witness, depth=2):
        pres = pres_of(self.NAMES[kind])
        mor, ball = pres.morphism(), ball_of(self.NAMES[kind], 3)
        family = pres.sigma_witness if kind == "sigma" else pres.lambda_witness

        def hand_made(q, fiber):
            return witness(pres) if q == 0 else family(q, fiber)

        if kind == "sigma":
            return check_sigma_axioms(mor, hand_made, ball)
        return check_decreasing_cover(mor, hand_made, ball, depth)

    def test_sigma_with_a_finite_join_fails_separation(self):
        # e <= b: their join b is finite, so {e, b} separates nothing.
        pres = pres_of(self.NAMES["sigma"])
        e, b = pres.identity(), pres.parse("b")
        report = self.check("sigma", lambda p: [e, b])
        assert report["separation_failures"] == [(0, e, b)]
        assert not report["ok"] and report["coverage_failures"] == []

    def test_increasing_chain_fails_decrease(self):
        # n -> b^n covers the fiber from its first entry but climbs.
        report = self.check("lambda", lambda p: [("up", lambda n: p.parse(f"b^{n}"))], depth=3)
        assert report["chain_failures"] == [(0, "up", n) for n in range(3)]
        assert report["disjointness_failures"] == report["uncovered"] == []

    def test_two_classes_below_one_element_fail_disjointness(self):
        # Constant chains at e and at b: b, b^2 and b^3 lie above both.
        pres = pres_of(self.NAMES["lambda"])
        report = self.check("lambda", lambda p: [("e", lambda n: p.identity()), ("b", lambda n: p.parse("b"))])
        assert report["disjointness_failures"] == [(0, pres.parse(f"b^{k}"), ["e", "b"]) for k in (1, 2, 3)]
        assert report["chain_failures"] == report["uncovered"] == []


class TestKernelCone:
    def test_bs_kernel_is_b_powers(self):
        pres = pres_of("bs:2,3")
        mor = pres.morphism()
        cone = kernel_cone(mor, ball_of("bs:2,3", 4))
        assert sorted(pres.canonical_str(x) for x in cone) == ["b", "b^2", "b^3", "b^4", "e"]

    def test_free_kernel_trivial(self):
        pres = pres_of("free:2")
        mor = pres.morphism()
        assert kernel_cone(mor, ball_of("free:2", 4)) == [pres.identity()]

    def test_graph_kernel_trivial(self):
        pres = pres_of("graph:path3")
        mor = pres.morphism()
        assert kernel_cone(mor, ball_of("graph:path3", 3)) == [pres.identity()]

    def test_hnn_kernel_is_base_monoid(self):
        pres = pres_of("hnn-:x,y@x,y")
        mor = pres.morphism()
        cone = kernel_cone(mor, ball_of("hnn-:x,y@x,y", 3))
        assert all(pres.height(x) == 0 and len(x[1]) == 0 for x in cone)
        assert len(cone) == 15


class TestPresentationHooks:
    def test_base_defaults(self):
        pres = IntGroup()
        with pytest.raises(PresentationError):
            pres.morphism()
        assert pres.positive_witness(3) is None
        assert not pres.has_chain

    @pytest.mark.parametrize(
        "name,radius,image,size", [("graph:path3", 3, "phi", 26), ("sd:phi-ab", 4, "exp_sum_pair", 81)]
    )
    def test_sigma_check_maps_each_ball_element_once(self, name, radius, image, size, monkeypatch):
        # The witnesses take their fiber: the check maps the ball once, to
        # split it, and no hook builds the map or maps the ball again.
        pres, ball = pres_of(name), ball_of(name, radius)
        cls = type(pres)
        counts = {"morphism": 0, "image": 0}
        build, fn = cls.morphism, getattr(cls, image)

        def counted_image(self, x):
            counts["image"] += 1
            return fn(self, x)

        def counted_build(self):
            counts["morphism"] += 1
            return build(self)

        monkeypatch.setattr(cls, image, counted_image)
        mor = pres.morphism()
        monkeypatch.setattr(cls, "morphism", counted_build)
        assert check_sigma_axioms(mor, pres.sigma_witness, ball)["ok"]
        assert counts == {"morphism": 0, "image": size} and len(ball) == size
