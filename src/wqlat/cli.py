"""Command line front end.

Every verb produces a deterministic report (table or JSON) and exits with
0 when all checks pass, 2 on a violation candidate, 3 when the outcome is
inconclusive, 64 on usage errors.

The verbs are one table.  ``build_parser`` registers each verb with
``verb(name, handler, help, *positionals, radius=...)``, which adds the
preset, the positionals, ``--radius``/``--max-radius`` when the verb has
a radius and ``--json``; each handler is ``handler(pres, args) ->
(parameters, findings, verdict)``:

    nf, pos, leq      one element or one pair, no ball
    join              the structural join; the ball oracle decides an
                      inconclusive one and cross-checks with --oracle
    ball, check-wql   the elements of a ball, its WQL scan
    check-controlled  order, join and sigma or lambda axioms of the
                      family's controlled map on a ball
    nica-verify       covariance of range projections on a safe region
    demo-chain        the descending chain of bs with d' < 0
    op                dense 0/1 matrix of a shift on a ball

``main`` parses (the grammar is built once per process), builds the
presentation, calls the handler and passes its result to ``emit``, which
writes the report.  Every ball comes from ``_ball``.  A
``PresentationError`` anywhere exits 64 with one line on stderr.
``main`` and ``emit`` stay module-level names: ``bench/tracing.py`` wraps
them by name.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .controlled import check_decreasing_cover, check_join_preserving, check_order_preserving, check_sigma_axioms
from .order import DEFAULT_RADIUS_CAP, PresentationError, check_weak_ql, oracle_join
from .presets import get_presentation
from .toeplitz import SafeRegion, check_nica, toeplitz_op
from .words import format_word

EXIT_PASS = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


def _ball(pres, args):
    return pres.enumerate_ball(args.radius, cap=args.max_radius)


def _nf(pres, args):
    x = pres.parse(args.element)
    return {"element": args.element}, [{"canonical": pres.canonical_str(x)}], "pass"


def _pos(pres, args):
    x = pres.parse(args.element)
    finding = {"positive": pres.is_positive(x)}
    witness = pres.positive_witness(x)
    if witness is not None:
        finding["witness"] = format_word(witness, pres.gen_names)
    return {"element": args.element}, [finding], "pass"


def _leq(pres, args):
    x, y = pres.parse(args.x), pres.parse(args.y)
    return {"x": args.x, "y": args.y}, [{"leq": pres.leq(x, y)}], "pass"


def _join(pres, args):
    x, y = pres.parse(args.x), pres.parse(args.y)
    result = pres.join(x, y)
    oracle = None
    if result.is_inconclusive or args.oracle:
        ball = _ball(pres, args)
        if x in ball and y in ball:
            oracle = oracle_join(pres, x, y, ball)
    if oracle is not None and result.is_inconclusive:
        result = oracle  # the oracle decides, so there is nothing to cross-check
    findings = [{"join": result.describe(pres)}]
    if oracle is not None and oracle is not result:
        findings.append({"oracle": oracle.describe(pres)})
    return {"x": args.x, "y": args.y}, findings, "inconclusive" if result.is_inconclusive else "pass"


def _elements(pres, args):
    ball = _ball(pres, args)
    findings = [{"size": len(ball), "elements": [pres.canonical_str(el) for el in ball]}]
    return {"radius": args.radius}, findings, "pass"


def _check_wql(pres, args):
    findings = check_weak_ql(pres, _ball(pres, args))
    return {"radius": args.radius}, findings, "violation" if findings else "pass"


def _check_controlled(pres, args):
    if args.chain_depth < 0:
        raise PresentationError(f"--chain-depth must be nonnegative, got {args.chain_depth}")
    mor = pres.morphism()
    ball = _ball(pres, args)
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
        axioms = check_sigma_axioms(mor, pres.sigma_witness, ball)
        if not axioms["ok"]:
            coverage = [pres.canonical_str(x) for _, x in axioms["coverage_failures"]]
            findings.append(
                {"sigma_coverage_failures": coverage, "sigma_separation_failures": len(axioms["separation_failures"])}
            )
    else:
        axioms = check_decreasing_cover(mor, pres.lambda_witness, ball, args.chain_depth)
        if axioms["increase_depth"]:
            findings.append({"uncovered": len(axioms["uncovered"]), "hint": "increase chain depth"})
            inconclusive = True
        for key in ("chain_failures", "disjointness_failures", "separation_failures"):
            if axioms[key]:
                findings.append({key: len(axioms[key])})
    real_failure = any("hint" not in f for f in findings)
    verdict = "violation" if real_failure else ("inconclusive" if inconclusive else "pass")
    params = {"radius": args.radius, "mode": mode, "chain_depth": args.chain_depth, "morphism": mor.name}
    return params, findings, verdict


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


def _nica_verify(pres, args):
    k = _sample_size(args.pairs)
    ball = _ball(pres, args)
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
    params = {"radius": args.radius, "safe_radius": args.safe_radius, "pairs": args.pairs, "seed": args.seed}
    return {**params, "checked": len(pairs)}, findings, verdict


def _demo_chain(pres, args):
    result = pres.chain_demo(args.n)
    return {"n": args.n}, [result], "pass" if result["ok"] else "violation"


def _op(pres, args):
    ball = _ball(pres, args)
    op = toeplitz_op(ball, pres.parse(args.element))
    findings = [{"basis": [pres.canonical_str(el) for el in ball], "rows": op.to_dense().tolist()}]
    return {"element": args.element, "radius": args.radius}, findings, "pass"


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> Parser:
    """The whole grammar, built on first use and shared by every later ``main`` call."""
    parser = Parser(prog="wqlat", description=(__doc__ or "").partition("\n\nThe verbs")[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=Parser)

    def verb(name, handler, help, *positionals, radius=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for dest in ("preset", *positionals):
            p.add_argument(dest)
        if radius is not None:
            p.add_argument("--radius", type=int, default=radius)
            p.add_argument("--max-radius", type=int, default=DEFAULT_RADIUS_CAP)
        p.add_argument("--json", action="store_true")
        return p

    verb("nf", _nf, "canonical form of an element", "element")
    verb("pos", _pos, "positivity of an element, with witness", "element")
    verb("leq", _leq, "order comparison of two elements", "x", "y")
    p = verb("join", _join, "least upper bound of two positive elements", "x", "y", radius=4)
    p.add_argument("--oracle", action="store_true", help="cross-check against the ball oracle")
    verb("ball", _elements, "enumerate a ball of the positive cone", radius=4)
    verb("check-wql", _check_wql, "scan a ball for join-uniqueness violations", radius=5)
    p = verb("check-controlled", _check_controlled, "verify controlled-map axioms on a ball", radius=4)
    p.add_argument("--mode", choices=("sigma", "lambda"), default=None)
    p.add_argument("--chain-depth", type=int, default=6)
    p = verb("nica-verify", _nica_verify, "covariance of range projections on a ball", radius=6)
    p.add_argument("--safe-radius", type=int, default=3)
    p.add_argument("--pairs", default="all", help="all or sample:k")
    p.add_argument("--seed", type=int, default=0)
    p = verb("demo-chain", _demo_chain, "descending chain demonstration (d' < 0)")
    p.add_argument("--n", type=int, default=4)
    verb("op", _op, "dense 0/1 matrix of a shift on a ball", "element", radius=3)
    return parser


def emit(args, pres, parameters: dict, findings: list, verdict: str) -> int:
    """Print the report of one verb (table, or JSON with ``--json``) and return its exit code."""
    report = dict(verb=args.verb, preset=pres.name, parameters=parameters, findings=findings, verdict=verdict)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"{args.verb} {pres.name}: {verdict}")
        for finding in findings:
            print("  " + json.dumps(finding, sort_keys=True))
    return {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}[verdict]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pres = get_presentation(args.preset)
        return emit(args, pres, *args.handler(pres, args))
    except PresentationError as exc:
        print(f"wqlat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
