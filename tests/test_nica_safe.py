"""The Nica check on the safe region, against whole-ball shifts.

``check_nica`` reads "z <= p" and "p in the range of T_z" from the quotients
z^-1 p over the safe region; these tests compare both masks with the
whole-ball shift ``toeplitz_op(ball, z)`` and ``pres.leq`` and check that
the check builds no whole-ball shift.  ``three_form_nica`` keeps the
logical and operator forms that ``check_nica`` merged into one comparison,
as the reference its verdicts are checked against.  ``nica-verify`` makes
the masks of each shift once per request and draws its pairs by position;
both are checked here against the uncached ``safe_masks`` and a draw from
the list of pairs.  The ``nica-verify`` reports are pinned in
``tests/golden.txt``.
"""

import json
import random

import numpy as np
import pytest

from wqlat import cli, toeplitz
from wqlat.order import JoinResult
from wqlat.presets import ACCEPTANCE_PRESETS, get_presentation
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


@pytest.mark.parametrize("argv,shifts", [
    (("bs:2,3", "--pairs", "sample:48", "--seed", "5"), 20),
    (("hnn-:x,y@x,y", "--pairs", "all", "--seed", "7"), 39),
])
def test_each_shift_masked_once_per_request(monkeypatch, capsys, argv, shifts):
    calls = []

    def spy(ball, safe, z):
        calls.append(z)
        return safe_masks(ball, safe, z)

    monkeypatch.setattr(toeplitz, "safe_masks", spy)
    common = ("--radius", "6", "--max-radius", "6", "--safe-radius", "3")
    assert cli.main(["nica-verify", argv[0], *common, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == shifts


def pairs_from_the_list(indices, k, seed):
    """The draw ``nica-verify`` made from the list of all pairs: the reference for ``cli._pairs``."""
    pairs = [(a, b) for a in indices for b in indices]
    if k is None:
        return pairs
    return random.Random(seed).sample(pairs, min(k, len(pairs)))


@pytest.mark.parametrize("n", [0, 1, 3, 7, 20])
@pytest.mark.parametrize("k", [None, 0, 1, 5, 48, 400, 1000])
def test_pair_draw_by_position_matches_the_list_draw(n, k):
    indices = tuple(range(3, 3 + 2 * n, 2))  # not 0..n-1, so a position is not an index
    for seed in (0, 2, 5, 27532):
        assert cli._pairs(indices, k, seed) == pairs_from_the_list(indices, k, seed)


def test_check_nica_refuses_a_region_of_another_ball():
    pres = pres_of("free:2")
    ball, twin = ball_of("free:2", 3), pres.enumerate_ball(3, cap=3)
    a, b = pres.parse("a"), pres.parse("b")
    assert check_nica(ball, SafeRegion.of(ball, 2), a, b)["verdict"] == "pass"
    with pytest.raises(ValueError, match="another ball"):
        check_nica(ball, SafeRegion.of(twin, 2), a, b)


def test_covariance_failure_is_named_and_sorted(monkeypatch, capsys):
    # No preset's join is wrong, so a wrong one is patched in: x v y := x
    # fails on the safe region exactly when y <= x fails (x is safe).
    name, seed, k = "hnn-:x,y@x,y", 7, 40
    pres = get_presentation(name)
    monkeypatch.setattr(pres, "join", lambda x, y: JoinResult.finite(x))
    monkeypatch.setattr(cli, "get_presentation", lambda preset: pres)
    argv = ["nica-verify", name, "--radius", "6", "--max-radius", "6", "--safe-radius", "3",
            "--pairs", f"sample:{k}", "--seed", str(seed), "--json"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    findings = json.loads(capsys.readouterr().out)["findings"]
    ball = pres.enumerate_ball(6, cap=6)
    sampled = [(ball.elements[a], ball.elements[b]) for a, b in cli._pairs(SafeRegion.of(ball, 3).indices, k, seed)]
    want = [[pres.canonical_str(x), pres.canonical_str(y)] for x, y in sampled if not pres.leq(y, x)]
    assert 0 < len(want) < k
    assert [f["pair"] for f in findings] == sorted(want)  # the names, and in order
    assert {f["classification"] for f in findings} == {"covariance failure"}


def test_nica_verify_names_only_its_safe_region(monkeypatch, capsys):
    # 39 elements of length <= 3 out of the 952 of the radius-6 ball.
    pres = get_presentation("hnn-:x,y@x,y")
    named = []
    canonical = pres.canonical_strs
    monkeypatch.setattr(pres, "canonical_strs", lambda xs: named.extend(xs) or canonical(xs))
    monkeypatch.setattr(cli, "get_presentation", lambda preset: pres)
    argv = ["nica-verify", "hnn-:x,y@x,y", "--radius", "6", "--max-radius", "6", "--safe-radius", "3",
            "--pairs", "sample:3"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(named) == len(set(named)) == 39
