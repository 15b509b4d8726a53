"""The Nica check on the safe region, against whole-ball shifts and pinned reports.

``check_nica`` reads "z <= p" and "p in the range of T_z" from the quotients
z^-1 p over the safe region; these tests compare both masks with the
whole-ball shift ``toeplitz_op(ball, z)`` and ``pres.leq``, check that the
check builds no whole-ball shift, and pin the ``nica-verify`` reports by
digest.
"""

import hashlib

import pytest

from wqlat import toeplitz
from wqlat.cli import main
from wqlat.presets import ACCEPTANCE_PRESETS
from wqlat.toeplitz import SafeRegion, check_nica, safe_masks, toeplitz_op

from conftest import ball_of, pres_of
from test_acceptance import NICA_RADII


# On the balls of criterion 4 no shift truncates, so the two masks agree;
# on the truncating balls some safe p >= z has z^-1 p off the ball.
CRITERION_4_BALLS = [(name, NICA_RADII.get(name, 6)) for name in ACCEPTANCE_PRESETS]
TRUNCATING_BALLS = [("bs:2,-3", 6), ("bs:1,2", 3)]


@pytest.mark.parametrize("name,radius", CRITERION_4_BALLS + TRUNCATING_BALLS)
def test_safe_masks_match_whole_ball_shifts(name, radius):
    pres = pres_of(name)
    ball = ball_of(name, radius)
    safe = SafeRegion.of(ball, 3)
    safe_idx = list(safe.indices)
    truncated = False
    for z in (ball.elements[i] for i in safe_idx):
        up, rng = safe_masks(pres, z, ball, safe)
        assert rng.tolist() == toeplitz_op(ball, z).image_mask()[safe_idx].tolist()
        assert up.tolist() == [pres.leq(z, ball.elements[p]) for p in safe_idx]
        truncated |= bool((up & ~rng).any())
    assert truncated == ((name, radius) in TRUNCATING_BALLS)


def test_check_nica_builds_no_whole_ball_shift(monkeypatch):
    def refuse(ball, x):
        raise AssertionError("check_nica built a whole-ball shift")

    monkeypatch.setattr(toeplitz, "toeplitz_op", refuse)
    pres = pres_of("hnn-:x,y@x,y")
    ball = ball_of("hnn-:x,y@x,y", 6)
    safe = SafeRegion.of(ball, 3)
    pairs = [("x", "x y"), ("x", "t"), ("e", "y t"), ("x", "y"), ("t x", "t y")]
    results = [check_nica(pres, pres.parse(x), pres.parse(y), ball, safe) for x, y in pairs]
    assert [r["verdict"] for r in results] == ["pass"] * len(pairs)
    assert {r["join"].is_finite for r in results} == {True, False}
    # b^-1 p leaves the radius-3 ball of bs:1,2 for some safe p >= b.
    pres = pres_of("bs:1,2")
    ball = ball_of("bs:1,2", 3)
    b = pres.parse("b")
    r = check_nica(pres, pres.identity(), b, ball, SafeRegion.of(ball, 3))
    assert r["verdict"] == "truncated" and r["shift"] == b


# sha256 and exit code of the stdout of ``wqlat nica-verify P --safe-radius 3
# --json`` with ``--pairs sample:40 --seed 7`` (and ``--pairs all`` where
# named), recorded with the whole-ball shifts this check replaced.
NICA_DIGESTS = {
    ("free:2", 6, "sample:40"): (0, "0bf15e997102188b3d526d89dfa38785db413eddfa9f405b1f2d3ba0b1ba9ae4"),
    ("scarparo", 6, "sample:40"): (0, "40a24d8c70e2aef6692f718b02db2e9bd3cea01c21f6731d6487962713f34c91"),
    ("bs:1,2", 6, "sample:40"): (0, "b208cecc690c7428d872eb06e830f16ed2ac08768d0268f56d4fae727e4b7dec"),
    ("bs:2,3", 6, "sample:40"): (0, "85b5ba7d2bac74b5b596129008d546692d337996ea51d22d7b74e454b64dfecd"),
    ("bs:2,-3", 8, "sample:40"): (0, "f0d368bc707cd37ea334f2aa2582cc9245459b416f10b66cc987f9c3488480e5"),
    ("bs:1,-1", 6, "sample:40"): (0, "99dd768e0bc59095dc742b1f1fa4c3a61d713938407259313f6a4efe0ed314cf"),
    ("graph:path3", 6, "sample:40"): (0, "d7d248951ba0aae2f1af3ac81e41ab9fb604f2f07e0152401f0acc966d7c87b8"),
    ("graph:noedge2", 6, "sample:40"): (0, "780ca2f13cbe3c64c19f39a8ad2d921b0ab901a045a7953db5661a0f46039996"),
    ("sd:swap2", 6, "sample:40"): (0, "67b5fba75bd37150be37f69209e05d00cd75841eb8036f288ecf2773e783dee1"),
    ("sd:phi-ab", 6, "sample:40"): (0, "ac187d894a945d7e293381c7858f22075a222d723728414de3c19e8f55c821f1"),
    ("hnn-:x,y@x,y", 6, "sample:40"): (0, "0d85713ad02cebb1196823a4677b2f9a1e326c9df04f31b425b0c95713d522e2"),
    ("bs:2,-3", 6, "all"): (3, "d01ece35744ad5b6c08045faceb40f1f583b613d4dab3eb4b5d966acb57be059"),
    ("hnn-:x,y@x,y", 6, "all"): (0, "eb9dc35f4b071d7f8f1f983f9bb4cd5344bad5e77ab039709887aad1123ab638"),
}


def test_digests_cover_every_acceptance_preset():
    assert {name for name, _, pairs in NICA_DIGESTS if pairs == "sample:40"} == set(ACCEPTANCE_PRESETS)


@pytest.mark.parametrize("name,radius,pairs", sorted(NICA_DIGESTS))
def test_nica_verify_report_digest(name, radius, pairs, capsys):
    argv = ["nica-verify", name, "--radius", str(radius), "--max-radius", str(radius)]
    argv += ["--safe-radius", "3", "--pairs", pairs, "--seed", "7", "--json"]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == NICA_DIGESTS[(name, radius, pairs)]
