"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 3 includes the parameter set c = d = 1, where the bounded element
collapses into the cone and powers of b interpolate below the whole chain;
the separation sub-check is therefore expected to fail there and the test
records that honestly instead of weakening the criterion.
"""

import random
import time
import zlib

from wqlat.controlled import (
    check_decreasing_cover,
    check_join_preserving,
    check_order_preserving,
    check_sigma_axioms,
)
from wqlat.order import check_weak_ql, oracle_join
from wqlat.presets import ACCEPTANCE_PRESETS
from wqlat.toeplitz import SafeRegion, check_nica, matrix_units_check
from wqlat.words import format_word

from conftest import ball_of, fiber_of, pres_of, record_criterion

NICA_RADII = {"bs:2,-3": 8}


def test_criterion_1_structural_joins_match_oracle():
    start = time.time()
    discrepancies = []
    for name in ACCEPTANCE_PRESETS:
        pres = pres_of(name)
        small = ball_of(name, 4)
        big = ball_of(name, 6)
        for x in small:
            for y in small:
                r = pres.join(x, y)
                if r.is_finite and r.value in big:
                    o = oracle_join(big, x, y)
                    if o != r:
                        discrepancies.append((name, pres.canonical_str(x), pres.canonical_str(y)))
                elif r.is_infinite:
                    o = oracle_join(big, x, y)
                    if o.is_finite:
                        discrepancies.append((name, pres.canonical_str(x), pres.canonical_str(y)))
    elapsed = time.time() - start
    ok = not discrepancies and elapsed < 300
    record_criterion(
        1,
        "structural joins agree with the ball oracle on all presets",
        ok,
        f"{len(ACCEPTANCE_PRESETS)} presets, {elapsed:.0f}s",
    )
    assert not discrepancies, discrepancies[:5]
    assert elapsed < 300


def test_criterion_2_weak_ql_controls():
    dirty = []
    for name in ACCEPTANCE_PRESETS:
        findings = check_weak_ql(ball_of(name, 5))
        if findings:
            dirty.append((name, findings[:2]))
    nx = pres_of("sd:nonexample")
    findings = check_weak_ql(nx.enumerate_ball(5))
    p, q = nx.metadata["witness_pair"]
    target = sorted([nx.canonical_str(p), nx.canonical_str(q)])
    bounds = sorted(nx.canonical_str(b) for b in nx.metadata["witness_bounds"])
    hits = [f for f in findings if f["pair"] == target and f["upper_bounds"] == bounds]
    ok = not dirty and len(hits) == 1
    record_criterion(
        2,
        "weak-quasi-lattice scan: clean positives, reported nonexample",
        ok,
        f"nonexample findings={len(findings)}",
    )
    assert not dirty, dirty
    assert len(hits) == 1


def test_criterion_3_descending_chain_demo():
    reports = {name: pres_of(name).chain_demo(6) for name in ("bs:2,-3", "bs:3,-2", "bs:1,-1")}
    bad = {name: rep for name, rep in reports.items() if not rep["ok"]}
    ok = not bad
    record_criterion(
        3,
        "descending chain demonstration at depth 6 on bs:2,-3, bs:3,-2, bs:1,-1",
        ok,
        "; ".join(f"{name} interpolants={rep['interpolants']}" for name, rep in bad.items()) or "exact",
    )
    for name in ("bs:2,-3", "bs:3,-2"):
        assert reports[name]["ok"], reports[name]
    assert reports["bs:1,-1"]["bound_failures"] == []
    assert reports["bs:1,-1"]["descent_failures"] == []
    # As stated the criterion also demands no interpolant for c = d = 1,
    # but b itself sits above a b^-1 a^-1 = b and below every b^n a, so the
    # requirement is unsatisfiable; see the failure detail above.
    assert reports["bs:1,-1"]["ok"], (
        "separation sub-check cannot hold for bs:1,-1: the bounded element "
        "collapses to b and the interpolants "
        f"{reports['bs:1,-1']['interpolants']} all lie between it and the chain"
    )


def test_criterion_4_nica_covariance():
    failures = []
    truncated = []
    for name in ACCEPTANCE_PRESETS:
        pres = pres_of(name)
        radius = NICA_RADII.get(name, 6)
        ball = ball_of(name, radius)
        safe = SafeRegion.of(ball, 3)
        members = [ball.elements[i] for i in safe.indices]
        for x in members:
            for y in members:
                verdict = check_nica(ball, safe, x, y)["verdict"]
                if verdict == "fail":
                    failures.append((name, pres.canonical_str(x), pres.canonical_str(y)))
                elif verdict == "truncated":
                    truncated.append((name, pres.canonical_str(x), pres.canonical_str(y)))
    ok = not failures and not truncated
    record_criterion(4, "covariance of range projections, exhaustive on radius-3 cores", ok)
    assert not failures, failures[:5]
    assert not truncated, truncated[:5]


SIGMA_SUITE = (
    "free:2",
    "scarparo",
    "bs:1,2",
    "bs:2,3",
    "hnn+:x,y@x,y",
    "graph:path3",
    "graph:noedge2",
    "sd:swap2",
    "sd:perm3",
    "sd:phi-ab",
)
LAMBDA_SUITE = ("bs:2,-3", "bs:1,-1", "hnn-:x,y@x,y")


def test_criterion_5_controlled_map_suites():
    problems = []
    for name in SIGMA_SUITE + LAMBDA_SUITE:
        pres = pres_of(name)
        mor = pres.morphism()
        radius = 3 if name.startswith(("graph:", "hnn")) else 4
        ball = ball_of(name, radius)
        if check_order_preserving(mor, ball):
            problems.append((name, "order"))
        if not check_join_preserving(mor, ball)["ok"]:
            problems.append((name, "join"))
    for name in SIGMA_SUITE:
        pres = pres_of(name)
        mor = pres.morphism()
        radius = 3 if name.startswith(("graph:", "hnn")) else 4
        if not check_sigma_axioms(mor, pres.sigma_witness, ball_of(name, radius))["ok"]:
            problems.append((name, "sigma"))
    for name in LAMBDA_SUITE:
        pres = pres_of(name)
        mor = pres.morphism()
        radius = 3 if name.startswith("hnn") else 4
        report = check_decreasing_cover(mor, pres.lambda_witness, ball_of(name, radius), 6)
        if not report["ok"]:
            problems.append((name, "lambda"))
    # Negative control: at c = d = 1 the height-one fiber has no minimal
    # elements, so the minimal-element axioms must fail in coverage only.
    control = pres_of("bs:1,-1")
    mor = control.morphism()
    report = check_sigma_axioms(mor, control.sigma_witness, ball_of("bs:1,-1", 4))
    if report["ok"] or not report["coverage_failures"] or report["separation_failures"]:
        problems.append(("bs:1,-1", "negative-control"))
    ok = not problems
    record_criterion(5, "controlled-map witness suites, including the negative control", ok, str(problems[:4]))
    assert not problems, problems


def test_criterion_6_morphism_structure():
    problems = []
    for name in ("graph:path3", "graph:noedge2", "graph:complete2"):
        pres = pres_of(name)
        mor = pres.morphism()
        ball = ball_of(name, 3)
        if check_order_preserving(mor, ball):
            problems.append((name, "order"))
        if not check_join_preserving(mor, ball)["ok"]:
            problems.append((name, "join"))
        # Injectivity holds for pairs with a common upper bound: equal
        # images and a finite join force equality.
        fibers = {}
        for x in ball:
            fibers.setdefault(mor(x), []).append(x)
        for members in fibers.values():
            for i, x in enumerate(members):
                for y in members[i + 1:]:
                    if pres.join(x, y).is_finite:
                        problems.append((name, "injectivity", pres.canonical_str(x), pres.canonical_str(y)))
    hm = pres_of("hnn-:x,y@x,y")
    small = ball_of("hnn-:x,y@x,y", 3)
    big = ball_of("hnn-:x,y@x,y", 5)
    for x in small:
        for y in small:
            if (big.leq_row(big.position(x)) & big.leq_row(big.position(y))).any():
                if not (hm.leq(x, y) or hm.leq(y, x)):
                    problems.append(("hnn-", "comparability", hm.canonical_str(x), hm.canonical_str(y)))
    ok = not problems
    record_criterion(6, "vertexwise morphism laws and bounded-pair comparability", ok, str(problems[:4]))
    assert not problems, problems


def test_criterion_7_matrix_units():
    pres = pres_of("bs:2,-3")
    ball = ball_of("bs:2,-3", 6)
    safe = SafeRegion.of(ball, 2)
    chains = pres.lambda_witness(1, fiber_of("bs:2,-3", 6, 1))[:2]
    assert len(chains) == 2
    failures = []
    for n in (0, 1, 2):
        report = matrix_units_check(ball, safe, chains, n)
        if not report["ok"]:
            failures.append((n, report["failures"]))
    ok = not failures
    record_criterion(7, "matrix-unit relations for two height-one classes at depths 0..2", ok)
    assert not failures, failures


FUZZ_FAMILIES = ("free:2", "bs:2,3", "bs:2,-3", "hnn-:x,y@x,y", "graph:path3", "sd:phi-ab")
FUZZ_ROUNDS = 10_000


def fuzz_seed(name):
    """Seed of a family's fuzz stream: ``hash`` of a string is salted per process, crc32 is not."""
    return zlib.crc32(name.encode())


def test_criterion_8_canonical_form_fuzz():
    failures = []
    for name in FUZZ_FAMILIES:
        pres = pres_of(name)
        gens = pres.positive_generators()
        rng = random.Random(fuzz_seed(name))
        for i in range(FUZZ_ROUNDS):
            u = pres.identity()
            for _ in range(rng.randrange(11)):
                g = rng.choice(gens)
                u = pres.mul(u, g if rng.random() < 0.5 else pres.inv(g))
            v = pres.identity()
            v_letters = []
            for _ in range(rng.randrange(11)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    v_letters.append(g)
                    v = pres.mul(v, g)
                else:
                    v_letters.append(pres.inv(g))
                    v = pres.mul(v, pres.inv(g))
            if pres.mul(pres.mul(u, v), pres.inv(v)) != u:
                failures.append((name, "cancellation", i))
                break
            positive = pres.identity()
            for _ in range(rng.randrange(11)):
                positive = pres.mul(positive, rng.choice(gens))
            if not pres.is_positive(positive):
                failures.append((name, "positivity", i))
                break
            witness = pres.positive_witness(positive)
            if witness is not None:
                rebuilt = pres.parse(format_word(witness, pres.gen_names))
                if rebuilt != positive:
                    failures.append((name, "witness", i))
                    break
    ok = not failures
    seeds = ", ".join(f"{name}={fuzz_seed(name)}" for name in FUZZ_FAMILIES)
    record_criterion(8, f"canonical-form fuzz, {FUZZ_ROUNDS} rounds per family, seeds {seeds}", ok, str(failures[:3]))
    assert not failures, failures
