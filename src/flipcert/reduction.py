"""Search for a bistellar move sequence from a sphere to a simplex boundary.

Strict mode never emits a type-0 (vertex-adding) move, so the reversed,
construction-direction sequence uses only types ``0..dim-1``.  The search is
a greedy vertex-removal sweep interleaved with simulated annealing on the
lexicographic cost (vertex count, then face counts from the top dimension
down); failure after the step budget is a first-class result, never a
fabricated certificate.  The sweep owns vertex removal (type ``dim``) and
runs from the input once; each restart starts where it ends, keeps one
``moves.FaceTable`` and its f-vector, stepped in closed form, and builds a
``Complex`` only when its best state improves.  Annealing runs only on
states a sweep leaves without a type-``dim`` move, so it draws the lower
types alone.  A sweep that ends at a simplex boundary is the reduction:
moves are PL homeomorphisms, so reaching one proves the input a PL sphere.
Only a sweep that falls short meets the sphere gates, in this order:
dimension >= 0, a 0-sphere is two points, the input is a pseudomanifold,
then the Euler characteristic of the one face count, taken on the swept
state.  ``replay`` is ``moves.replay``, bound here too for ``cli apply``,
``flipcert.replay`` and the benchmark tracer.  The breadth-first
flip-distance oracle the tests hold the search to is in
``tests/reference.py``.
"""

import functools
import math
import operator
import random
from dataclasses import dataclass

from .complexes import (
    Complex, f_vector, is_boundary_of_simplex, is_int, is_pseudomanifold)
from .errors import FlipcertError, InputError
from .moves import FaceTable, enumerate_moves, f_vector_change, replay


class BadInput(InputError):
    pass


class SearchExhausted(FlipcertError):
    """Raised where a reduction is mandatory; carries the best result found."""

    def __init__(self, result: "ReductionResult"):
        self.result = result
        super().__init__(
            f"no reduction found after {result.steps_examined} steps"
        )


@dataclass(frozen=True)
class ReductionOptions:
    mode: str = "strict"  # "strict" forbids type-0 moves, "free" allows all
    max_steps: int = 100_000
    rng_seed: int = 0
    restarts: int = 8


@dataclass(frozen=True)
class ReductionResult:
    moves: tuple  # Move sequence applied to the input complex
    final: Complex
    succeeded: bool
    steps_examined: int


def _cost(f: tuple) -> tuple:
    """Vertex count, then face counts from the top dimension down."""
    return (f[0],) + tuple(reversed(f))


def f_vector_after(f: tuple, move) -> tuple:
    """The f-vector after ``move``, stepped by ``moves.f_vector_change``."""
    change = f_vector_change(len(move.sigma), len(move.tau))
    return tuple(map(operator.add, f, change))


def _greedy_vertex_removals(table) -> list:
    """Apply vertex-removing moves (type = dim) to the complex ``table``
    holds until none applies, least vertex first, as
    ``enumerate_moves(table, {dim})[0]`` would pick; return them in order.

    One listing starts the sweep; each removal then updates the table,
    which judges again only the vertices whose star the removal changed,
    and the next removal is the least of ``table.moves(dim)``.
    """
    if table.dim < 1:  # at dimension 0, type dim is type 0: it always applies
        return []
    removed = []
    listed = enumerate_moves(table, {table.dim})
    while listed:
        removed.append(listed[0])
        table.update(listed[0])
        listed = table.moves(table.dim)
    return removed


def _single_search(k, sweep, f, allowed, max_steps, rng):
    """One restart from ``k``, where ``sweep`` left the input, with f-vector
    ``f``; returns the steps examined (every move applied, the sweep's too,
    plus every rejected proposal) and the least-cost state seen, as
    ``(cost, trail, complex)``.  It stops at a simplex boundary, the least
    of all: ``dim + 2`` vertices and as many facets, read off ``f``."""
    trail = list(sweep)
    rejected = 0
    table = FaceTable(k)
    best = (_cost(f), len(trail), k)  # the trail only grows
    candidates = None  # kept until a move is accepted
    for step in range(max_steps):
        if f[0] == f[-1] == k.dim + 2:
            break
        if candidates is None:
            candidates = enumerate_moves(table, allowed)
        if not candidates:
            break
        move = rng.choice(candidates)
        proposed = f_vector_after(f, move)
        if _cost(proposed) > _cost(f):
            t = 0.99 ** (step // 50)
            # t underflows to 0.0 after about 3.7M steps, within reach of
            # --max-steps, and exp(-1/t) would then divide by zero
            if t <= 0 or rng.random() >= math.exp(-1.0 / t):
                rejected += 1
                continue
        table.update(move)
        candidates = None
        swept = _greedy_vertex_removals(table)
        trail += [move, *swept]
        f = functools.reduce(f_vector_after, swept, proposed)
        if _cost(f) < best[0]:
            best = (_cost(f), len(trail), table.snapshot())
    cost, length, final = best
    return len(trail) + rejected, (cost, tuple(trail[:length]), final)


def reduce_to_simplex(k: Complex, opts=ReductionOptions()) -> ReductionResult:
    """Search for a move sequence taking ``k`` to a simplex boundary.

    Restarts run from the sweep's end with derived seeds (``rng_seed +
    index``), so identical inputs and options are bit-reproducible, and the
    least-cost state wins.  Moves keep each ridge in two facets, so only a
    simplex boundary has the fewest vertices, ``dim + 2``, and the least
    cost: reaching one ends the search, and the result succeeds exactly
    when its state is one.
    """
    if opts.mode not in ("strict", "free"):
        raise BadInput(f"unknown mode {opts.mode!r}")
    counts = (opts.max_steps, opts.restarts, opts.rng_seed)
    if not all(map(is_int, counts)) or opts.max_steps < 0 or opts.restarts < 1:
        raise BadInput("invalid search options")
    table = FaceTable(k)
    sweep = _greedy_vertex_removals(table)
    swept = table.snapshot()
    if is_boundary_of_simplex(swept):
        return ReductionResult(tuple(sweep), swept, True, len(sweep))
    if k.dim < 0:
        raise BadInput("a sphere needs dimension >= 0")
    if k.dim == 0:  # nothing sweeps it, and two points were returned above
        raise BadInput("a 0-dimensional sphere must be exactly two points")
    if not is_pseudomanifold(k):
        raise BadInput("input is not a pseudomanifold")
    f = f_vector(swept)  # the one count; moves keep the Euler characteristic
    chi = sum((-1) ** d * fd for d, fd in enumerate(f))
    expected = 1 + (-1) ** k.dim
    if chi != expected:
        raise BadInput(
            f"Euler characteristic {chi} does not match a {k.dim}-sphere ({expected})")
    lowest = 1 if opts.mode == "strict" else 0
    allowed = set(range(lowest, k.dim))  # the sweep owns type dim
    best = None
    examined = 0
    for restart in range(opts.restarts):
        rng = random.Random(opts.rng_seed + restart)
        steps, found = _single_search(swept, sweep, f, allowed, opts.max_steps, rng)
        examined += steps
        if best is None or found[0] < best[0]:
            best = found
        if is_boundary_of_simplex(best[2]):
            break
    _, moves, final = best
    return ReductionResult(moves, final, is_boundary_of_simplex(final), examined)
