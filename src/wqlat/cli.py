"""Command line front end.

Every verb produces a deterministic report (table or JSON) and exits with
0 when all checks pass, 2 on a violation candidate, 3 when the outcome is
inconclusive, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .controlled import (
    check_decreasing_cover,
    check_join_preserving,
    check_order_preserving,
    check_sigma_axioms,
)
from .order import (
    DEFAULT_RADIUS_CAP,
    PresentationError,
    check_weak_ql,
    oracle_join,
)
from .presets import get_presentation
from .toeplitz import SafeRegion, check_nica
from .words import format_word

EXIT_PASS = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> Parser:
    parser = Parser(prog="wqlat", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=Parser)

    def common(p, radius_default=4):
        p.add_argument("preset")
        p.add_argument("--radius", type=int, default=radius_default)
        p.add_argument("--max-radius", type=int, default=DEFAULT_RADIUS_CAP)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("nf", help="canonical form of an element")
    p.add_argument("preset")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pos", help="positivity of an element, with witness")
    p.add_argument("preset")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("leq", help="order comparison of two elements")
    p.add_argument("preset")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("join", help="least upper bound of two positive elements")
    p.add_argument("preset")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--max-radius", type=int, default=DEFAULT_RADIUS_CAP)
    p.add_argument("--oracle", action="store_true", help="cross-check against the ball oracle")
    p.add_argument("--json", action="store_true")

    common(sub.add_parser("ball", help="enumerate a ball of the positive cone"))
    common(sub.add_parser("check-wql", help="scan a ball for join-uniqueness violations"), 5)

    p = sub.add_parser("check-controlled", help="verify controlled-map axioms on a ball")
    common(p)
    p.add_argument("--mode", choices=("sigma", "lambda"), default=None)
    p.add_argument("--chain-depth", type=int, default=6)

    p = sub.add_parser("nica-verify", help="covariance of range projections on a ball")
    common(p, 6)
    p.add_argument("--safe-radius", type=int, default=3)
    p.add_argument("--pairs", default="all", help="all or sample:k")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("demo-chain", help="descending chain demonstration (d' < 0)")
    p.add_argument("preset")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("op", help="dense 0/1 matrix of a shift on a ball")
    p.add_argument("preset")
    p.add_argument("element")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--max-radius", type=int, default=DEFAULT_RADIUS_CAP)
    p.add_argument("--json", action="store_true")

    return parser


def emit(report: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"{report['verb']} {report['preset']}: {report['verdict']}")
        for finding in report["findings"]:
            print("  " + json.dumps(finding, sort_keys=True))
    return {
        "pass": EXIT_PASS,
        "violation": EXIT_VIOLATION,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[report["verdict"]]


def report_for(verb: str, pres, parameters: dict, findings: list, verdict: str) -> dict:
    return {
        "verb": verb,
        "preset": pres.name,
        "parameters": parameters,
        "findings": findings,
        "verdict": verdict,
    }


def run(args) -> int:
    pres = get_presentation(args.preset)
    if args.verb == "nf":
        x = pres.parse(args.element)
        report = report_for("nf", pres, {"element": args.element}, [{"canonical": pres.canonical_str(x)}], "pass")
        return emit(report, args.json)

    if args.verb == "pos":
        x = pres.parse(args.element)
        positive = pres.is_positive(x)
        finding = {"positive": positive}
        witness = pres.positive_witness(x)
        if witness is not None:
            finding["witness"] = format_word(witness, pres.gen_names)
        report = report_for("pos", pres, {"element": args.element}, [finding], "pass")
        return emit(report, args.json)

    if args.verb == "leq":
        x, y = pres.parse(args.x), pres.parse(args.y)
        report = report_for(
            "leq", pres, {"x": args.x, "y": args.y}, [{"leq": pres.leq(x, y)}], "pass"
        )
        return emit(report, args.json)

    if args.verb == "join":
        x, y = pres.parse(args.x), pres.parse(args.y)
        result = pres.join(x, y)
        oracle = None
        if result.is_inconclusive or args.oracle:
            ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
            if x in ball and y in ball:
                oracle = oracle_join(pres, x, y, ball)
        if oracle is not None and result.is_inconclusive:
            result = oracle  # the oracle decides, so there is nothing to cross-check
        findings = [{"join": result.describe(pres)}]
        if oracle is not None and oracle is not result:
            findings.append({"oracle": oracle.describe(pres)})
        verdict = "inconclusive" if result.is_inconclusive else "pass"
        report = report_for("join", pres, {"x": args.x, "y": args.y}, findings, verdict)
        return emit(report, args.json)

    if args.verb == "ball":
        ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
        findings = [{"size": len(ball), "elements": [pres.canonical_str(el) for el in ball]}]
        report = report_for("ball", pres, {"radius": args.radius}, findings, "pass")
        return emit(report, args.json)

    if args.verb == "check-wql":
        ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
        findings = check_weak_ql(pres, ball)
        verdict = "violation" if findings else "pass"
        report = report_for("check-wql", pres, {"radius": args.radius}, findings, verdict)
        return emit(report, args.json)

    if args.verb == "check-controlled":
        return _run_check_controlled(pres, args)

    if args.verb == "nica-verify":
        return _run_nica(pres, args)

    if args.verb == "demo-chain":
        result = pres.chain_demo(args.n)
        verdict = "pass" if result["ok"] else "violation"
        report = report_for("demo-chain", pres, {"n": args.n}, [result], verdict)
        return emit(report, args.json)

    if args.verb == "op":
        from .toeplitz import toeplitz_op

        ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
        op = toeplitz_op(ball, pres.parse(args.element))
        findings = [
            {
                "basis": [pres.canonical_str(el) for el in ball],
                "rows": op.to_dense().tolist(),
            }
        ]
        report = report_for("op", pres, {"element": args.element, "radius": args.radius}, findings, "pass")
        return emit(report, args.json)

    raise AssertionError(f"unhandled verb {args.verb}")


def _run_check_controlled(pres, args) -> int:
    if args.chain_depth < 0:
        raise PresentationError(f"--chain-depth must be nonnegative, got {args.chain_depth}")
    mor = pres.morphism()
    ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
    mode = args.mode or ("lambda" if pres.has_chain else "sigma")
    findings = []
    order_failures = check_order_preserving(mor, ball)
    if order_failures:
        findings.append({"order_failures": len(order_failures)})
    join_report = check_join_preserving(mor, ball)
    if not join_report["ok"]:
        findings.append({"join_failures": len(join_report["failures"])})
    inconclusive = False
    if mode == "sigma":
        report = check_sigma_axioms(mor, pres.sigma_witness, ball)
        if not report["ok"]:
            findings.append(
                {
                    "sigma_coverage_failures": [
                        pres.canonical_str(x) for _, x in report["coverage_failures"]
                    ],
                    "sigma_separation_failures": len(report["separation_failures"]),
                }
            )
    else:
        report = check_decreasing_cover(mor, pres.lambda_witness, ball, args.chain_depth)
        if report["increase_depth"]:
            findings.append({"uncovered": len(report["uncovered"]), "hint": "increase chain depth"})
            inconclusive = True
        for key in ("chain_failures", "disjointness_failures", "separation_failures"):
            if report[key]:
                findings.append({key: len(report[key])})
    real_failure = any("hint" not in f for f in findings)
    verdict = "violation" if real_failure else ("inconclusive" if inconclusive else "pass")
    params = {"radius": args.radius, "mode": mode, "chain_depth": args.chain_depth, "morphism": mor.name}
    return emit(report_for("check-controlled", pres, params, findings, verdict), args.json)


def _sample_size(spec: str) -> int | None:
    """Pair count of a ``--pairs`` value: None for ``all``, k for ``sample:k``."""
    if spec == "all":
        return None
    if spec.startswith("sample:"):
        try:
            k = int(spec[len("sample:"):])
        except ValueError:
            k = -1
        if k >= 0:
            return k
    raise PresentationError(f"--pairs must be 'all' or 'sample:k' with k >= 0, got {spec!r}")


def _run_nica(pres, args) -> int:
    k = _sample_size(args.pairs)
    ball = pres.enumerate_ball(args.radius, cap=args.max_radius)
    safe = SafeRegion.of(ball, args.safe_radius)
    candidates = [ball.elements[i] for i in safe.indices]
    pairs = [(x, y) for x in candidates for y in candidates]
    if k is not None:
        rng = random.Random(args.seed)
        pairs = rng.sample(pairs, min(k, len(pairs)))
    findings = []
    inconclusive = 0
    for x, y in pairs:
        result = check_nica(pres, x, y, ball, safe)
        if result["verdict"] in ("inconclusive", "truncated"):
            # A truncated comparison says nothing either way; a larger
            # enclosing ball is needed.
            inconclusive += 1
        elif result["verdict"] == "fail":
            findings.append(
                {"pair": [pres.canonical_str(x), pres.canonical_str(y)], "classification": "covariance failure"}
            )
    findings.sort(key=lambda f: f["pair"])
    verdict = "violation" if findings else ("inconclusive" if inconclusive else "pass")
    params = {
        "radius": args.radius,
        "safe_radius": args.safe_radius,
        "pairs": args.pairs,
        "seed": args.seed,
        "checked": len(pairs),
    }
    return emit(report_for("nica-verify", pres, params, findings, verdict), args.json)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except PresentationError as exc:
        print(f"wqlat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
