"""The Nica check on the safe region, against whole-ball shifts.

``check_nica`` reads "z <= p" and "p in the range of T_z" from the quotients
z^-1 p over the safe region; these tests compare both masks with the
whole-ball shift ``toeplitz_op(ball, z)`` and ``pres.leq`` and check that
the check builds no whole-ball shift.  ``three_form_nica`` keeps the
logical and operator forms that ``check_nica`` merged into one comparison,
as the reference its verdicts are checked against.  The ``nica-verify``
reports are pinned in ``tests/golden.txt``.
"""

import numpy as np
import pytest

from wqlat import toeplitz
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
        up, rng = safe_masks(ball, safe, z)
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
    results = [check_nica(ball, safe, pres.parse(x), pres.parse(y)) for x, y in pairs]
    assert [r["verdict"] for r in results] == ["pass"] * len(pairs)
    assert {r["join"].is_finite for r in results} == {True, False}
    # b^-1 p leaves the radius-3 ball of bs:1,2 for some safe p >= b.
    pres = pres_of("bs:1,2")
    ball = ball_of("bs:1,2", 3)
    b = pres.parse("b")
    r = check_nica(ball, SafeRegion.of(ball, 3), pres.identity(), b)
    assert r["verdict"] == "truncated" and r["shift"] == b



def three_form_nica(ball, safe, x, y):
    """The Nica check with its logical form, operator form and their agreement each compared: the reference."""
    pres = ball.pres
    join = pres.join(x, y)
    if join.is_inconclusive:
        return {"verdict": "inconclusive", "join": join}
    for z in (x, y):
        ball.position(z)
    shifts = [x, y] + ([join.value] if join.is_finite else [])
    above, ranges = [], []
    for z in shifts:
        up, rng = safe_masks(ball, safe, z)
        if (up & ~rng).any():
            return {"verdict": "truncated", "join": join, "shift": z}
        above.append(up)
        ranges.append(rng)
    if not join.is_finite:
        above.append(np.zeros(len(safe.indices), dtype=bool))
        ranges.append(above[-1])
    (ux, uy, uj), (rx, ry, rj) = above, ranges
    logical_ok = np.array_equal(ux & uy, uj)
    operator_ok = np.array_equal(rx & ry, rj)
    forms_agree = np.array_equal(rx & ry, ux & uy)
    return {"verdict": "pass" if logical_ok and operator_ok and forms_agree else "fail", "join": join}


@pytest.mark.parametrize("name,radius", CRITERION_4_BALLS + TRUNCATING_BALLS)
def test_one_comparison_matches_the_three_forms(name, radius):
    ball = ball_of(name, radius)
    safe = SafeRegion.of(ball, 3)
    members = [ball.elements[i] for i in safe.indices]
    for x in members:
        for y in members:
            assert check_nica(ball, safe, x, y) == three_form_nica(ball, safe, x, y)
