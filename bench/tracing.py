"""In-memory tracer that wraps the public entry points of each wqlat module.

The tracer measures the library from outside: it replaces module-level
functions and class methods with timing wrappers and puts the originals
back when it is uninstalled.  Family modules import helpers by name
(``from .words import word_mul``), so every module binding of a wrapped
function is replaced, not just the defining module's.

Every wrapped call pushes a frame on one stack, so self time is a call's
duration minus the time of the wrapped calls nested inside it.  Entry
points (verbs, scans, ball builds, shifts) also record a span with a
parent span and a request id; hot leaf functions such as ``word_mul`` only
add to aggregated counters, so the trace's memory stays bounded by the
number of entry-point calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

PERF = time.perf_counter

FAMILY_MODULES = {
    "baumslag": "BaumslagSolitar",
    "hnn": "HnnExtension",
    "graphprod": "GraphProduct",
    "semidirect": "SemidirectProduct",
}
FAMILY_METHODS = ("mul", "inv", "is_positive", "leq", "join")
WORD_FUNCTIONS = ("word_mul", "word_pow", "word_inv", "reduce_word")


class Tracer:
    """Aggregated counters, self times and spans for one traced run."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.extra = defaultdict(float)  # named counts measured at the boundaries
        self.active = defaultdict(int)  # name -> nesting depth, for "calls inside"
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.distinct: set = set()
        self._frames: list[list] = []  # [child seconds]
        self._span_stack: list[int] = []
        self._restore: list[tuple] = []
        self.request = None  # id of the benchmark request being served
        self.keep_spans = True

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, span=False, before=None, after=None):
        """Timing wrapper around ``fn``; ``after`` may replace the result."""
        stats = self.stats[name]
        frames, spans, span_stack, active = self._frames, self.spans, self._span_stack, self.active
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            frame = [0.0]
            recorded = span and tracer.keep_spans
            if recorded:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            frames.append(frame)
            active[name] += 1
            start = PERF()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = PERF()
                active[name] -= 1
                frames.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if recorded:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[sid] = (sid, name, start, end, parent, tracer.request)
            if after is not None:
                replaced = after(tracer, args, result)
                if replaced is not None:
                    return replaced
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, modules, defining, attr, name, **kw):
        """Wrap ``defining.attr`` and every module binding of the same object."""
        original = getattr(defining, attr, None)
        if original is None:
            return
        wrapper = self.wrap(original, name, **kw)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, True, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, **kw):
        """Wrap ``cls.attr``; an inherited method gets its own wrapper on ``cls``."""
        original = getattr(cls, attr, None)
        if original is None:
            return
        own = attr in cls.__dict__
        self._restore.append((cls, attr, own, cls.__dict__.get(attr)))
        setattr(cls, attr, self.wrap(original, name, **kw))

    def uninstall(self) -> None:
        for obj, attr, own, original in reversed(self._restore):
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._restore.clear()

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self.stats.items())},
                    "counts": dict(sorted(self.extra.items())),
                },
                fh,
            )


# -- hooks measuring work at the boundaries -----------------------------------


def _count_result_len(key):
    def after(tracer, args, result):
        tracer.extra[key] += len(result)

    return after


def _count_join_undecided(tracer, args, result):
    if result.is_inconclusive:
        tracer.extra["hnn.join.undecided"] += 1


def _count_leq_in_hnn_join(tracer, args):
    if tracer.active["hnn.join"]:
        tracer.extra["hnn.join.leq"] += 1


def _count_row_fill(tracer, args):
    table, i = args[0], args[1]
    if i not in getattr(table, "_rows", {i: None}):
        tracer.extra["order.LeqTable.row.fills"] += 1


def _count_table_size(tracer, args, result):
    tracer.extra["order.LeqTable.ball_elements"] += len(args[1])


def _count_controlled_inconclusive(tracer, args, result):
    tracer.extra["controlled.check_join_preserving.inconclusive"] += result.get("inconclusive", 0)


def _count_distinct_shift(tracer, args):
    ball, x = args[0], args[1]
    tracer.distinct.add((tracer.request, id(ball), x))


def _count_nica_verdict(tracer, args, result):
    verdict = result.get("verdict")
    if verdict in ("truncated", "inconclusive"):
        tracer.extra[f"toeplitz.check_nica.{verdict}"] += 1


def _wrap_witness(tracer, args, result):
    return tracer.wrap(result, "presets.witness", span=True)


def install(tracer: Tracer):
    """Wrap the entry points of every wqlat module; returns the tracer."""
    import importlib

    import wqlat

    names = ("words", "order", "baumslag", "hnn", "graphprod", "semidirect", "controlled", "toeplitz", "presets", "cli")
    mods = {n: importlib.import_module(f"wqlat.{n}") for n in names}
    every = [wqlat] + list(mods.values())
    order, toeplitz, presets, cli = mods["order"], mods["toeplitz"], mods["presets"], mods["cli"]

    for fname in WORD_FUNCTIONS:
        tracer.patch_function(every, mods["words"], fname, f"words.{fname}")

    # Generic order first, so family wrappers of inherited methods call it.
    tracer.patch_method(order.Presentation, "leq", "order.leq_generic")
    tracer.patch_method(order.Presentation, "enumerate_ball", "order.enumerate_ball", span=True,
                        after=_count_result_len("order.enumerate_ball.elements"))
    if "enumerate_ball" in mods["words"].ScarparoCone.__dict__:
        tracer.patch_method(mods["words"].ScarparoCone, "enumerate_ball", "order.enumerate_ball", span=True,
                            after=_count_result_len("order.enumerate_ball.elements"))
    if hasattr(order, "LeqTable"):
        tracer.patch_method(order.LeqTable, "__init__", "order.LeqTable.init", after=_count_table_size)
        tracer.patch_method(order.LeqTable, "row", "order.LeqTable.row", before=_count_row_fill)
        tracer.patch_method(order.LeqTable, "minimal_elements", "order.minimal_elements")
    tracer.patch_function(every, order, "oracle_join", "order.oracle_join", span=True)
    tracer.patch_function(every, order, "check_weak_ql", "order.check_weak_ql", span=True)

    for modname, clsname in FAMILY_MODULES.items():
        cls = getattr(mods[modname], clsname)
        for meth in FAMILY_METHODS:
            kw = {}
            if modname == "hnn" and meth == "join":
                kw["after"] = _count_join_undecided
            if modname == "hnn" and meth == "leq":
                kw["before"] = _count_leq_in_hnn_join
            tracer.patch_method(cls, meth, f"{modname}.{meth}", **kw)
    # Cache misses of the HNN positivity test: is_positive calls that reach
    # the uncached computation.
    tracer.patch_method(mods["hnn"].HnnExtension, "_is_positive", "hnn._is_positive")

    for fname in ("check_order_preserving", "check_join_preserving", "check_sigma_axioms", "check_decreasing_cover"):
        kw = {"after": _count_controlled_inconclusive} if fname == "check_join_preserving" else {}
        tracer.patch_function(every, mods["controlled"], fname, f"controlled.{fname}", span=True, **kw)

    tracer.patch_function(every, toeplitz, "toeplitz_op", "toeplitz.toeplitz_op", span=True,
                          before=_count_distinct_shift)
    for meth in ("compose", "adjoint", "restrict"):
        tracer.patch_method(toeplitz.PartialInjection, meth, f"toeplitz.PartialInjection.{meth}")
    tracer.patch_function(every, toeplitz, "check_nica", "toeplitz.check_nica", span=True,
                          after=_count_nica_verdict)

    tracer.patch_function(every, presets, "get_presentation", "presets.get_presentation", span=True)
    for fname in ("sigma_witness_for", "lambda_witness_for"):
        tracer.patch_function(every, presets, fname, f"presets.{fname}", after=_wrap_witness)

    tracer.patch_function(every, cli, "main", "cli.main", span=True)
    tracer.patch_function(every, cli, "emit", "cli.emit", span=True)
    return tracer


def _calls(tracer, name):
    return tracer.stats[name][0] if name in tracer.stats else 0


def _self(tracer, name):
    return tracer.stats[name][1] if name in tracer.stats else 0.0


def layer_metrics(tracer: Tracer, passes: int, emitted_bytes: int) -> dict:
    """Every per-layer metric, per traced pass, as {name: (value, unit)}."""
    out: dict = {}

    def calls_self(name):
        out[f"{name}.calls"] = (_calls(tracer, name) / passes, "count")
        out[f"{name}.self_s"] = (_self(tracer, name) / passes, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    for fname in WORD_FUNCTIONS:
        calls_self(f"words.{fname}")
    for modname in FAMILY_MODULES:
        for meth in FAMILY_METHODS:
            calls_self(f"{modname}.{meth}")
    pos_calls = _calls(tracer, "hnn.is_positive")
    out["hnn.is_positive.hit_ratio"] = (ratio(pos_calls - _calls(tracer, "hnn._is_positive"), pos_calls), "ratio")
    out["hnn.join.leq_per_call"] = (ratio(tracer.extra["hnn.join.leq"], _calls(tracer, "hnn.join")), "ratio")
    out["hnn.join.undecided"] = (tracer.extra["hnn.join.undecided"] / passes, "count")

    calls_self("order.enumerate_ball")
    out["order.enumerate_ball.elements"] = (tracer.extra["order.enumerate_ball.elements"] / passes, "count")
    calls_self("order.leq_generic")
    calls_self("order.LeqTable.row")
    fills = tracer.extra["order.LeqTable.row.fills"]
    out["order.LeqTable.row.fills"] = (fills / passes, "count")
    out["order.LeqTable.fill_ratio"] = (ratio(fills, tracer.extra["order.LeqTable.ball_elements"]), "ratio")
    calls_self("order.minimal_elements")
    calls_self("order.oracle_join")
    out["order.check_weak_ql.self_s"] = (_self(tracer, "order.check_weak_ql") / passes, "s")

    for fname in ("check_order_preserving", "check_join_preserving", "check_sigma_axioms", "check_decreasing_cover"):
        calls_self(f"controlled.{fname}")
    out["controlled.check_join_preserving.inconclusive"] = (
        tracer.extra["controlled.check_join_preserving.inconclusive"] / passes,
        "count",
    )

    calls_self("toeplitz.toeplitz_op")
    shifts = _calls(tracer, "toeplitz.toeplitz_op")
    out["toeplitz.toeplitz_op.distinct_ratio"] = (ratio(len(tracer.distinct), shifts), "ratio")
    for meth in ("compose", "adjoint", "restrict"):
        calls_self(f"toeplitz.PartialInjection.{meth}")
    calls_self("toeplitz.check_nica")
    for verdict in ("truncated", "inconclusive"):
        out[f"toeplitz.check_nica.{verdict}"] = (tracer.extra[f"toeplitz.check_nica.{verdict}"] / passes, "count")

    out["presets.get_presentation.self_s"] = (_self(tracer, "presets.get_presentation") / passes, "s")
    calls_self("presets.witness")
    calls_self("cli.main")
    out["cli.emit.self_s"] = (_self(tracer, "cli.emit") / passes, "s")
    out["cli.emit.bytes"] = (emitted_bytes / passes, "bytes")
    return out
