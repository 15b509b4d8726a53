"""Seeded request streams for the three benchmark workloads, and their checks.

The library only ever sees element strings and CLI argv lists built here
from the benchmark seed.  Every stream is derived with ``zlib.crc32`` so a
seed names the same inputs in every process (``hash()`` is salted).

Each workload runs in passes.  A pass is a fixed list of requests, the same
in every pass of a run; it starts from fresh library state (new
presentations for ``queries``; every CLI request builds its own), so passes
repeat identical work and the run reports medians over them.  Answers are
checked after the timed loop: the first pass against independent
references, later passes against the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import zlib
from dataclasses import dataclass, field

EXIT_PASS, EXIT_VIOLATION, EXIT_INCONCLUSIVE = 0, 2, 3


def derive(seed: int, *labels) -> int:
    """Stable 32-bit stream seed for ``labels`` under the benchmark seed."""
    return zlib.crc32(":".join(map(str, (seed,) + labels)).encode())


# -- alphabets: positive letter tokens, and how to write their inverses ------

CUSTOM_GRAPH = "graph:bench/presets/square4.json"


def _letters(*names):
    return [(n, f"{n}^-1") for n in names]


def _syllables(*vertex_letters):
    return [(f"[v{v}: {g}]", f"[v{v}: {g}^-1]") for v, g in vertex_letters]


ALPHABETS = {
    "free:2": _letters("a", "b"),
    "scarparo": _letters("a", "b"),
    "bs:1,2": _letters("a", "b"),
    "bs:2,3": _letters("a", "b"),
    "bs:2,-3": _letters("a", "b"),
    "bs:1,-1": _letters("a", "b"),
    "hnn+:x,y@x,y": _letters("x", "y", "t"),
    "hnn-:x,y@x,y": _letters("x", "y", "t"),
    "graph:path3": _syllables((0, "a"), (1, "a"), (2, "a")),
    "graph:noedge2": _syllables((0, "a"), (1, "a")),
    "graph:complete2": _syllables((0, "a"), (1, "a")),
    CUSTOM_GRAPH: _syllables((0, "a"), (1, "a"), (2, "a"), (3, "a")),
    "sd:swap2": _letters("a", "b", "s"),
    "sd:perm3": _letters("a", "b", "c", "s"),
    "sd:phi-ab": _letters("a", "b", "s"),
    "sd:nonexample": _letters("a", "b", "s"),
}
# Every preset of the README table, with one custom graph file.
QUERY_PRESETS = tuple(ALPHABETS)
WITNESS_FAMILIES = ("free", "scarparo", "bs", "hnn")


def signed_word(rng, alphabet, max_len=10) -> str:
    """Random signed word of up to ``max_len`` letters, as element text."""
    tokens = [rng.choice(rng.choice(alphabet)) for _ in range(rng.randrange(max_len + 1))]
    return " ".join(tokens) or "e"


def positive_word(rng, preset, alphabet, min_len=1, max_len=4) -> str:
    """Product of random positive generators (the Scarparo cone is b F+)."""
    n = rng.randint(min_len, max_len)
    if preset == "scarparo":
        return " ".join(["b"] + [rng.choice(alphabet)[0] for _ in range(n - 1)])
    return " ".join(rng.choice(alphabet)[0] for _ in range(n))


@dataclass
class Result:
    """One answered request: the raw answer, the time it took, its verdict."""

    index: int
    seconds: float
    answer: object = None
    verdict: str = ""
    exit: int | None = None
    error: str | None = None
    undecided: bool = False
    output_bytes: int = 0


@dataclass
class Request:
    verb: str
    preset: str
    args: tuple
    radius: int | None = None
    seed: int | None = None
    expect: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {"verb": self.verb, "preset": self.preset, "radius": self.radius, "seed": self.seed}


# -- queries: a library session -------------------------------------------------


class Queries:
    """Element queries against presentations built once per session."""

    name = "queries"
    fresh_heap = False  # one long session: its garbage is part of the cost
    KINDS = ("nf", "pos", "leq", "join")
    CHECK_RADIUS = 5

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.per_pass = 64 if smoke else 16384
        self.presets = QUERY_PRESETS
        self.requests = self._stream("timed", self.per_pass)
        self.warmup_requests = self._stream("warmup", 64 if smoke else 512)

    def _stream(self, label, n):
        rngs = {p: random.Random(derive(self.seed, "queries", label, p)) for p in self.presets}
        out = []
        for i in range(n):
            preset = self.presets[i % len(self.presets)]
            kind = self.KINDS[(i // len(self.presets)) % len(self.KINDS)]
            rng, alphabet = rngs[preset], ALPHABETS[preset]
            if kind == "join":
                texts = (positive_word(rng, preset, alphabet), positive_word(rng, preset, alphabet))
            elif kind == "leq":
                texts = (signed_word(rng, alphabet), signed_word(rng, alphabet))
            else:
                texts = (signed_word(rng, alphabet),)
            out.append(Request(kind, preset, texts))
        return out

    def setup_code(self) -> str:
        names = ", ".join(repr(p) for p in self.presets)
        return f"import wqlat.presets\n[wqlat.presets.get_presentation(p) for p in ({names})]\n"

    def new_session(self):
        import wqlat.presets

        return {p: wqlat.presets.get_presentation(p) for p in self.presets}

    @staticmethod
    def execute(session, req: Request):
        pres = session[req.preset]
        if req.verb == "nf":
            x = pres.parse(req.args[0])
            return x, pres.canonical_str(x)
        if req.verb == "pos":
            x = pres.parse(req.args[0])
            witness_of = getattr(pres, "positive_witness", None)
            return x, pres.is_positive(x), witness_of(x) if witness_of else None
        x, y = pres.parse(req.args[0]), pres.parse(req.args[1])
        if req.verb == "leq":
            return x, y, pres.leq(x, y)
        return x, y, pres.join(x, y)

    @staticmethod
    def describe(session, req: Request, answer) -> tuple:
        """Verdict, whether it is undecided, exit code and output bytes."""
        if req.verb == "nf":
            return answer[1], False, None, 0
        if req.verb == "pos":
            witness = answer[2]
            return f"{answer[1]} witness={None if witness is None else len(witness)}", False, None, 0
        if req.verb == "leq":
            return str(answer[2]), False, None, 0
        result = answer[2]
        return result.describe(session[req.preset]), result.is_inconclusive, None, 0

    def check(self, results: list[Result]) -> list[str]:
        """Independent checks of one pass; returns one message per failure."""
        checker = Checker()
        failures = []
        for req, res in zip(self.requests, results):
            if res.error is not None:
                failures.append(f"{req.verb} {req.preset} {req.args}: {res.error}")
                continue
            try:
                problem = checker.query(req, res.answer, self.CHECK_RADIUS)
            except Exception as exc:  # a check that raises is a failed request, not a crashed run
                problem = f"check raised {exc!r}"
            if problem:
                failures.append(f"{req.verb} {req.preset} {req.args}: {problem}")
        return failures


class Checker:
    """References built on separate presentations, outside the timed region."""

    def __init__(self):
        import wqlat.presets

        self._get = wqlat.presets.get_presentation
        self._pres: dict = {}
        self._balls: dict = {}
        self._rows: dict = {}

    def pres(self, name):
        if name not in self._pres:
            self._pres[name] = self._get(name)
        return self._pres[name]

    def product(self, name, tokens) -> object:
        """Fold of ``mul`` over single-letter elements: the parser's reference."""
        pres = self.pres(name)
        out = pres.identity()
        for token in tokens:
            out = pres.mul(out, pres.parse(token))
        return out

    def up_row(self, name, radius, x):
        """Ball elements above x, by direct ``leq`` tests."""
        key = (name, radius, x)
        if key not in self._rows:
            pres = self.pres(name)
            ball = self._balls.get((name, radius))
            if ball is None:
                ball = self._balls[(name, radius)] = pres.enumerate_ball(radius, cap=radius)
            self._rows[key] = [z for z in ball.elements if pres.leq(x, z)]
        return self._rows[key]

    def laws(self, name, x, text) -> str | None:
        pres = self.pres(name)
        if text != "e" and x != self.product(name, _tokens(text)):
            return "parse differs from the product of its letters"
        if pres.mul(x, pres.inv(x)) != pres.identity():
            return "x x^-1 != e"
        if pres.parse(pres.canonical_str(x)) != x:
            return "parse(canonical_str(x)) != x"
        return None

    def query(self, req: Request, answer, radius) -> str | None:
        name = req.preset
        pres = self.pres(name)
        problem = self.laws(name, answer[0], req.args[0])
        if problem:
            return problem
        if req.verb == "nf":
            return None if answer[1] == pres.canonical_str(answer[0]) else "canonical form differs"
        if req.verb == "pos":
            x, positive, witness = answer
            if positive != pres.is_positive(x):
                return "positivity differs on a fresh presentation"
            if pres.family not in WITNESS_FAMILIES:
                return None
            if (witness is not None) != positive:
                return "witness present iff positive fails"
            if witness is not None:
                return self._witness(name, x, witness)
            return None
        x, y, result = answer
        problem = self.laws(name, y, req.args[1])
        if problem:
            return problem
        if req.verb == "leq":
            return None if result == pres.is_positive(pres.mul(pres.inv(x), y)) else "leq != is_positive(x^-1 y)"
        if not (pres.is_positive(x) and pres.is_positive(y)):
            return "join operand is not positive"
        if result.is_inconclusive:
            return None
        ubs = set(self.up_row(name, radius, x)) & set(self.up_row(name, radius, y))
        if result.is_infinite:
            return "infinite join but a common upper bound lies in the ball" if ubs else None
        j = result.value
        if not (pres.leq(x, j) and pres.leq(y, j)):
            return "join is not an upper bound"
        if not all(pres.leq(j, z) for z in ubs):
            return "join is not below every common upper bound in the ball"
        return None

    def _witness(self, name, x, witness) -> str | None:
        """The witness is a positive letter word that multiplies back to x."""
        pres = self.pres(name)
        if any(sign != 1 for _, sign in witness):
            return "witness has a negative letter"
        alphabet = ALPHABETS[name]
        tokens = [alphabet[gen][0] for gen, _ in witness]
        if self.product(name, tokens) != x:
            return "witness does not multiply back to x"
        return None


def _tokens(text):
    """Letter tokens of element text: ``[vI: g]`` syllables or plain letters."""
    if "[" not in text:
        return text.split()
    return ["[" + part.strip() for part in text.split("[") if part.strip()]


# -- CLI workloads -----------------------------------------------------------------

# Ball sizes at the parent commit; the enumeration is exact, so they are known.
BALL_SIZES = {
    ("hnn-:x,y@x,y", 6): 952,
    ("sd:nonexample", 5): 296,
    ("graph:path3", 6): 247,
    ("free:2", 3): 15,
}
NONEXAMPLE_FINDINGS = 170
SIGMA_SUITE = (
    "free:2", "scarparo", "bs:1,2", "bs:2,3", "hnn+:x,y@x,y", "graph:path3",
    "graph:noedge2", "sd:swap2", "sd:perm3", "sd:phi-ab",
)
LAMBDA_SUITE = ("bs:2,-3", "bs:1,-1", "hnn-:x,y@x,y")


def controlled_radius(preset):
    return 3 if preset.startswith(("graph", "hnn")) else 4


class CliWorkload:
    """In-process ``wqlat.cli.main`` requests with stdout captured."""

    # Each request stands for one CLI process: it starts from a collected heap.
    fresh_heap = True

    def setup_code(self) -> str:
        return "import wqlat.cli\n"

    def new_session(self):
        import wqlat.cli

        return wqlat.cli

    @staticmethod
    def execute(cli, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(req.args))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def describe(cli, req: Request, answer) -> tuple:
        """Verdict, whether it is undecided, exit code and output bytes."""
        code, out, _ = answer
        try:
            verdict = json.loads(out)["verdict"]
        except (ValueError, KeyError):
            verdict = "unparsed"
        digest = hashlib.sha256(out.encode()).hexdigest()[:12]
        return f"exit={code} {verdict} out={digest}", code == EXIT_INCONCLUSIVE, code, len(out.encode())

    def check(self, results: list[Result]) -> list[str]:
        checker = Checker()
        failures = []
        for req, res in zip(self.requests, results):
            label = " ".join(req.args[:2])
            if res.error is not None:
                failures.append(f"{label}: {res.error}")
                continue
            code, out, err = res.answer
            if code != req.expect["exit"]:
                failures.append(f"{label}: exit {code}, expected {req.expect['exit']}: {err.strip()}")
                continue
            try:
                report = json.loads(out)
            except ValueError:
                failures.append(f"{label}: output is not JSON")
                continue
            try:
                problem = getattr(self, "_check_" + req.verb.replace("-", "_"))(checker, req, report)
            except Exception as exc:  # a check that raises is a failed request, not a crashed run
                problem = f"check raised {exc!r}"
            if problem:
                failures.append(f"{label}: {problem}")
        return failures

    @staticmethod
    def _check_check_wql(checker, req, report):
        findings = report["findings"]
        if req.preset != "sd:nonexample":
            return None if report["verdict"] == "pass" and not findings else "unexpected findings"
        if report["verdict"] != "violation" or len(findings) != NONEXAMPLE_FINDINGS:
            return f"expected {NONEXAMPLE_FINDINGS} findings, got {len(findings)}"
        pres = checker.pres(req.preset)
        pair = sorted(pres.canonical_str(p) for p in pres.metadata["witness_pair"])
        bounds = sorted(pres.canonical_str(b) for b in pres.metadata["witness_bounds"])
        hits = [f for f in findings if f["pair"] == pair and f["upper_bounds"] == bounds]
        return None if len(hits) == 1 else "metadata witness pair missing from the findings"

    @staticmethod
    def _check_check_controlled(checker, req, report):
        return None if report["verdict"] == "pass" and not report["findings"] else "axiom failures reported"

    @staticmethod
    def _check_ball(checker, req, report):
        (finding,) = report["findings"]
        elements = finding["elements"]
        if finding["size"] != req.expect["size"] or len(set(elements)) != len(elements):
            return f"ball size {finding['size']}, expected {req.expect['size']}"
        pres = checker.pres(req.preset)
        if elements[0] != "e" or not all(pres.is_positive(pres.parse(el)) for el in elements):
            return "ball holds a non-positive element"
        return None

    @staticmethod
    def _check_demo_chain(checker, req, report):
        (result,) = report["findings"]
        if result["ok"] != (req.expect["exit"] == EXIT_PASS):
            return "chain demonstration verdict differs"
        if not result["ok"] and not result["interpolants"]:
            return "violation without interpolants"
        return None

    @staticmethod
    def _check_nica_verify(checker, req, report):
        if report["verdict"] != "pass" or report["findings"]:
            return "covariance failures reported"
        return None if report["parameters"]["checked"] == req.expect["checked"] else "wrong number of pairs checked"

    @staticmethod
    def _check_join(checker, req, report):
        pres = checker.pres(req.preset)
        found = {k: v for f in report["findings"] for k, v in f.items()}
        structural, oracle = found.get("join", ""), found.get("oracle")
        if structural.startswith("finite "):
            j = pres.parse(structural[len("finite "):])
            x, y = pres.parse(req.args[2]), pres.parse(req.args[3])
            if not (pres.leq(x, j) and pres.leq(y, j)):
                return "join is not an upper bound"
            if oracle is not None and oracle.startswith("finite") and oracle != structural:
                return "structural join and oracle disagree"
        elif structural == "infinite":
            if oracle is not None and oracle.startswith("finite"):
                return "oracle finds a join the structural algorithm calls infinite"
        else:
            return f"unexpected join verdict {structural!r}"
        return None

    @staticmethod
    def _check_op(checker, req, report):
        """Each column of the shift matrix sends p to x p, or to nothing outside the ball."""
        pres = checker.pres(req.preset)
        (finding,) = report["findings"]
        basis, rows = finding["basis"], finding["rows"]
        where = {el: i for i, el in enumerate(basis)}
        x = pres.parse(req.args[2])
        for i, el in enumerate(basis):
            targets = [j for j in range(len(basis)) if rows[j][i]]
            image = where.get(pres.canonical_str(pres.mul(x, pres.parse(el))))
            if targets != ([] if image is None else [image]):
                return f"column {el!r} maps to {targets}, expected {image}"
        return None


class BallScan(CliWorkload):
    """Verbs that fill the whole order relation of their ball."""

    name = "ball-scan"
    # sd:nonexample at radius 5 is the violation path (exit 2, 170 findings);
    # the clean presets scan at radius 4, which keeps a pass near 3 s so that a
    # run repeats each request often enough for its median time to settle.
    WQL = (("sd:nonexample", 5), ("hnn-:x,y@x,y", 4), ("hnn+:x,y@x,y", 4), ("sd:perm3", 4),
           ("graph:path3", 4), ("sd:phi-ab", 4))
    BALLS = (("hnn-:x,y@x,y", 6), ("sd:nonexample", 5), ("graph:path3", 6))

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(derive(seed, "ball-scan"))
        reqs = []
        wql = (("sd:phi-ab", 3),) if smoke else self.WQL
        for preset, radius in wql:
            exit_code = EXIT_VIOLATION if preset == "sd:nonexample" else EXIT_PASS
            reqs.append(self._req("check-wql", preset, radius, exit_code, "--radius", str(radius)))
        for preset in (("free:2",) if smoke else SIGMA_SUITE + LAMBDA_SUITE):
            mode = "lambda" if preset in LAMBDA_SUITE else "sigma"
            radius = controlled_radius(preset)
            reqs.append(self._req("check-controlled", preset, radius, EXIT_PASS,
                                  "--radius", str(radius), "--mode", mode, "--chain-depth", "6"))
        for preset, radius in ([("free:2", 3)] if smoke else self.BALLS):
            req = self._req("ball", preset, radius, EXIT_PASS, "--radius", str(radius))
            req.expect["size"] = BALL_SIZES[(preset, radius)]
            reqs.append(req)
        for preset in (("bs:2,-3",) if smoke else ("bs:2,-3", "bs:3,-2", "bs:1,-1")):
            # bs:1,-1 is the documented red case: b interpolates below the chain.
            exit_code = EXIT_VIOLATION if preset == "bs:1,-1" else EXIT_PASS
            req = Request("demo-chain", preset, ("demo-chain", preset, "--n", str(rng.randint(3, 7)), "--json"))
            req.expect["exit"] = exit_code
            reqs.append(req)
        rng.shuffle(reqs)
        self.requests = reqs
        self.warmup_requests = [
            self._req("check-wql", "bs:2,3", 3, EXIT_PASS, "--radius", "3"),
            self._req("check-controlled", "free:2", 3, EXIT_PASS, "--radius", "3", "--mode", "sigma"),
        ]

    @staticmethod
    def _req(verb, preset, radius, exit_code, *extra):
        return Request(verb, preset, (verb, preset) + extra + ("--json",), radius=radius, expect={"exit": exit_code})


class SparseBall(CliWorkload):
    """Large balls of which only the radius-3 core rows are ever used."""

    name = "sparse-ball"
    # (preset, radius, pairs per request, requests): 24 or more sampled core
    # pairs per preset.  The requests that cost about 100 ms (hnn-, path3 and
    # bs:2,-3 with the pairs given here) are 19 of the pass's 29, and the 10
    # others cost less (phi-ab, bs:2,3, joins, op), so the pass median falls
    # inside a group of like requests, not on a gap in costs.  sd:phi-ab
    # pairs vary most in cost (a coefficient of variation near 0.5), so its
    # requests are kept small: with more pairs, the one seed that draws dear
    # ones would make a phi-ab request the slowest of the pass, and p99
    # would follow the draw.
    NICA = (
        ("hnn-:x,y@x,y", 6, 3, 14),
        ("graph:path3", 6, 6, 4),
        ("sd:phi-ab", 6, 8, 3),
        ("bs:2,-3", 8, 24, 1),
        ("bs:2,3", 6, 48, 1),
    )
    # Oracle joins of two length-3 core elements; the oracle fills a row per
    # common upper bound, so presets whose bounds stay few keep the cost even.
    JOIN_PRESETS = ("sd:phi-ab", "bs:2,3", "bs:2,-3")
    OP_PRESETS = ("graph:path3", "hnn-:x,y@x,y", "bs:2,-3")

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(derive(seed, "sparse-ball"))
        reqs = []
        nica = (("bs:2,3", 4, 3, 1),) if smoke else self.NICA
        safe = 2 if smoke else 3
        for preset, radius, pairs, count in nica:
            for k in range(count):
                nseed = derive(seed, "nica", preset, k) % 100_000
                reqs.append(Request(
                    "nica-verify", preset,
                    ("nica-verify", preset, "--radius", str(radius), "--max-radius", str(radius),
                     "--safe-radius", str(safe), "--pairs", f"sample:{pairs}", "--seed", str(nseed), "--json"),
                    radius=radius, seed=nseed, expect={"exit": EXIT_PASS, "checked": pairs}))
        radius = 4 if smoke else 6
        for preset in self.JOIN_PRESETS[:1] if smoke else self.JOIN_PRESETS:
            x, y = (positive_word(rng, preset, ALPHABETS[preset], 3, 3) for _ in range(2))
            reqs.append(Request("join", preset, ("join", preset, x, y, "--oracle", "--radius", str(radius), "--json"),
                                radius=radius, expect={"exit": EXIT_PASS}))
        for preset in self.OP_PRESETS[:1] if smoke else self.OP_PRESETS:
            x = positive_word(rng, preset, ALPHABETS[preset], 1, 2)
            reqs.append(Request("op", preset, ("op", preset, x, "--radius", "2", "--json"),
                                radius=2, expect={"exit": EXIT_PASS}))
        rng.shuffle(reqs)
        self.requests = reqs
        self.warmup_requests = [
            Request("op", "free:2", ("op", "free:2", "a", "--radius", "2", "--json"), expect={"exit": EXIT_PASS}),
            Request("nica-verify", "free:2", ("nica-verify", "free:2", "--radius", "3", "--safe-radius", "1", "--json"),
                    expect={"exit": EXIT_PASS}),
        ]


WORKLOADS = {w.name: w for w in (Queries, BallScan, SparseBall)}
