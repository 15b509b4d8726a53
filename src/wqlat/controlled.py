"""Verification engine for controlled maps between ordered groups.

A morphism is checked against two axiom styles on a finite ball:

* minimal-element style: each fiber over the target cone is covered from
  below by a set Sigma_q of elements whose pairwise joins are infinite;
* decreasing-chain style: each fiber splits into classes S_lambda, each
  the union of the upper sets of a decreasing chain s_n.

Witness data comes from the family: ``Presentation.morphism()`` gives the
map, and the bound methods ``sigma_witness`` and ``lambda_witness`` are the
witnesses these checks take, each called as ``(q, fiber)`` with one fiber
of ``fibers``: the ball elements over q, in ball order.  Verification
never synthesises witness data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .order import Ball, Presentation

# sigma witness: (q, fiber) -> list of source elements, fiber the ball elements over q
SigmaWitness = Callable
# lambda witness: (q, fiber) -> list of (label, chain) with chain(n) a source element
LambdaWitness = Callable


@dataclass
class Morphism:
    """Group homomorphism with ordered source and target."""

    name: str
    source: Presentation
    target: Presentation
    fn: Callable

    def __call__(self, x):
        return self.fn(x)


def fibers(mor: Morphism, ball: Ball) -> dict:
    out: dict = {}
    for x in ball:
        out.setdefault(mor(x), []).append(x)
    return out


def _order_breaks(mor: Morphism, ball: Ball) -> tuple[list, np.ndarray]:
    """The images of the ball, and the matrix of the pairs x <= y whose images are not ordered."""
    images = [mor(x) for x in ball.elements]
    return images, ball.order() & ~mor.target.order_matrix(images, images)


def check_order_preserving(mor: Morphism, ball: Ball) -> list:
    """Pairs x <= y in the ball whose images are not ordered."""
    els = ball.elements
    return [(els[i], els[j]) for i, j in zip(*np.nonzero(_order_breaks(mor, ball)[1]))]


def check_join_preserving(mor: Morphism, ball: Ball) -> dict:
    """mu(x v y) = mu(x) v mu(y) over ball pairs with a finite structural join.

    A comparable pair x <= y joins to y, and mu(x) v mu(y) = mu(y) exactly
    when mu(x) <= mu(y), so its failures are those of order preservation.
    The open pairs come from one ``join_table`` of the ball, handed the
    ball's relation (which ``check_order_preserving`` builds), their image
    joins from the target rule ``_join``; neither is guarded, as ball
    elements are positive by construction.  A pair whose source or target
    join is inconclusive is counted as inconclusive, not as a failure.
    """
    els = ball.elements
    images, broken = _order_breaks(mor, ball)
    failed = {(min(i, j), max(i, j)) for i, j in np.argwhere(broken).tolist()}
    inconclusive = 0
    for (i, j), r in mor.source.join_table(els, ball.order()).items():
        if r.is_inconclusive:
            inconclusive += 1
            continue
        tgt = mor.target._join(images[i], images[j])
        if tgt.is_inconclusive:
            inconclusive += 1
        elif not (tgt.is_finite and tgt.value == mor(r.value)):
            failed.add((i, j))
    failures = [(els[i], els[j]) for i, j in sorted(failed)]
    return {"failures": failures, "inconclusive": inconclusive, "ok": not failures}


def _separation(src: Presentation, xs: list, rel: np.ndarray, apart: Callable) -> tuple[list, int]:
    """Pairs (i, j) of xs that must have an infinite join (``apart(i, j)``) but have a finite one; the undecided count.

    ``rel = order_matrix(xs, xs)``: a comparable pair joins to the larger
    element, and the open pairs' joins come from one ``join_table``; an
    inconclusive one is counted, not a failure.
    """
    table = src.join_table(xs, rel)
    comparable = [(i, j) for i, j in np.argwhere(np.triu(rel | rel.T)).tolist() if apart(i, j)]
    apart_pairs = sorted(comparable + [(i, j) for i, j in table if apart(i, j)])
    failures = [p for p in apart_pairs if p not in table or not table[p].is_inconclusive]
    return failures, len(apart_pairs) - len(failures)


def check_sigma_axioms(mor: Morphism, witness: SigmaWitness, ball: Ball) -> dict:
    """Minimal-element axioms: fiber coverage from below, pairwise infinite joins.

    Witnesses must be positive; one ``order_matrix`` per fiber orders them
    against themselves and the fiber, their open pairs' joins come from one
    ``join_table``, and a pair whose join is undecided counts in
    ``separation_inconclusive``, not as a failure.
    """
    coverage_failures = []
    separation_failures = []
    separation_inconclusive = 0
    src = mor.source
    for q, members in sorted(fibers(mor, ball).items(), key=lambda kv: str(kv[0])):
        sigma = list(witness(q, members))
        src.require_positive(*sigma)
        below = src.order_matrix(sigma, sigma + members)
        covered = below[:, len(sigma):].any(0)
        coverage_failures.extend((q, x) for x, hit in zip(members, covered) if not hit)
        failed, undecided = _separation(src, sigma, below[:, :len(sigma)], lambda i, j: sigma[i] != sigma[j])
        separation_failures.extend((q, sigma[i], sigma[j]) for i, j in failed)
        separation_inconclusive += undecided
    return {
        "coverage_failures": coverage_failures,
        "separation_failures": separation_failures,
        "separation_inconclusive": separation_inconclusive,
        "ok": not coverage_failures and not separation_failures,
    }


def check_decreasing_cover(mor: Morphism, witness: LambdaWitness, ball: Ball, depth: int) -> dict:
    """Decreasing-chain axioms at chain depth ``depth``.

    Verifies the chains decrease, that every fiber element lies above some
    chain entry of exactly one class, and that elements of distinct classes
    have infinite join.  An uncovered element is flagged as needing a larger
    depth rather than reported as a violation, and a pair whose join is
    undecided counts in ``separation_inconclusive``.
    """
    src = mor.source
    chain_failures = []
    disjointness_failures = []
    separation_failures = []
    separation_inconclusive = 0
    uncovered = []
    for q, members in sorted(fibers(mor, ball).items(), key=lambda kv: str(kv[0])):
        classes = list(witness(q, members))
        for label, chain in classes:
            for n in range(depth):
                if not src.leq(chain(n + 1), chain(n)):
                    chain_failures.append((q, label, n))
        # above[c, k]: members[k] lies above some chain entry of class c.
        entries = [chain(n) for _, chain in classes for n in range(depth + 1)]
        above = src.order_matrix(entries, members).reshape(len(classes), depth + 1, len(members)).any(1)
        assignment = {}
        for k, x in enumerate(members):
            matched = np.flatnonzero(above[:, k])
            if not matched.size:
                uncovered.append((q, x))
            elif len(matched) > 1:
                disjointness_failures.append((q, x, [classes[c][0] for c in matched]))
            else:
                assignment[k] = matched[0]
        block = [ball.index[x] for x in members]
        failed, undecided = _separation(
            src, members, ball.order()[np.ix_(block, block)],
            lambda i, j: i in assignment and j in assignment and assignment[i] != assignment[j],
        )
        separation_failures.extend((q, members[i], members[j]) for i, j in failed)
        separation_inconclusive += undecided
    return {
        "chain_failures": chain_failures,
        "disjointness_failures": disjointness_failures,
        "separation_failures": separation_failures,
        "separation_inconclusive": separation_inconclusive,
        "uncovered": uncovered,
        "increase_depth": bool(uncovered),
        "ok": not (chain_failures or disjointness_failures or separation_failures or uncovered),
    }

