"""Search for a bistellar move sequence from a sphere to a simplex boundary.

Strict mode never emits a type-0 (vertex-adding) move, so the reversed,
construction-direction sequence uses only types ``0..dim-1``.  The search is
a greedy vertex-removal sweep interleaved with simulated annealing on the
lexicographic cost (vertex count, then face counts from the top dimension
down); failure after the step budget is a first-class result, never a
fabricated certificate.  A restart's only state is one
``moves.FaceTable``, updated with every move it applies, and its f-vector,
updated in closed form; it lists every state from the table and builds a
``Complex`` only when its best state improves.  The sweep owns vertex
removal (type ``dim``); annealing runs only on states the sweep leaves
without such a move, so it draws the lower types alone.  Only
``_check_sphere_candidate`` counts faces, once per ``reduce`` or
``certify``.  ``replay`` is ``moves.replay``, bound here too for ``cli
apply``, ``flipcert.replay`` and the benchmark tracer.
"""

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex, f_vector, is_boundary_of_simplex, is_int, is_pseudomanifold)
from .errors import FlipcertError, InputError
from .moves import FaceTable, apply_move, enumerate_moves, f_vector_change, replay


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


def _check_sphere_candidate(k: Complex) -> tuple:
    """Reject what cannot be a sphere; return the f-vector, counted once."""
    if k.dim < 0:
        raise BadInput("a sphere needs dimension >= 0")
    if k.dim == 0:
        # Dimension 0 admits no pseudomanifold test; the only sphere is a
        # point pair, which is already a simplex boundary.
        if len(k.support) != 2:
            raise BadInput("a 0-dimensional sphere must be exactly two points")
        return (2,)
    if not is_pseudomanifold(k):
        raise BadInput("input is not a pseudomanifold")
    expected = 1 + (-1) ** k.dim
    f = f_vector(k)
    chi = sum((-1) ** d * fd for d, fd in enumerate(f))
    if chi != expected:
        raise BadInput(
            f"Euler characteristic {chi} does not match "
            f"a {k.dim}-sphere ({expected})"
        )
    return f


def _cost(f: tuple) -> tuple:
    """Vertex count, then face counts from the top dimension down."""
    return (f[0],) + tuple(reversed(f))


def f_vector_after(f: tuple, move) -> tuple:
    """The f-vector after ``move``, stepped by ``moves.f_vector_change``."""
    change = f_vector_change(len(move.sigma), len(move.tau))
    return tuple(map(operator.add, f, change))


def _greedy_vertex_removals(table, f, trail):
    """Apply vertex-removing moves (type = dim) to the complex ``table``
    holds until none applies, least vertex first, as
    ``enumerate_moves(table, {dim})[0]`` would pick; return the f-vector.

    One listing starts the sweep; each removal then updates the table,
    which judges again only the vertices whose star the removal changed,
    and the next removal is the least of ``table.moves(dim)``.
    """
    listed = enumerate_moves(table, {table.dim})
    while listed:
        move = listed[0]
        table.update(move)
        f = f_vector_after(f, move)
        trail.append(move)
        listed = table.moves(table.dim)
    return f


def _single_search(k, f, allowed, max_steps, rng):
    """One restart; returns the steps examined (every move applied plus
    every rejected proposal) and the least-cost state seen, as ``(cost,
    trail, complex)``.  It stops at a simplex boundary, the least of all:
    ``dim + 2`` vertices and as many facets, read off the f-vector.  One
    face table follows the restart's state from move to move."""
    trail = []
    rejected = 0
    table = FaceTable(k)
    f = _greedy_vertex_removals(table, f, trail)
    best = (_cost(f), len(trail), table.snapshot())  # the trail only grows
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
        trail.append(move)
        f = _greedy_vertex_removals(table, proposed, trail)
        if _cost(f) < best[0]:
            best = (_cost(f), len(trail), table.snapshot())
    cost, length, final = best
    return len(trail) + rejected, (cost, tuple(trail[:length]), final)


def reduce_to_simplex(k: Complex, opts=ReductionOptions()) -> ReductionResult:
    """Search for a move sequence taking ``k`` to a simplex boundary.

    Restarts run with derived seeds (``rng_seed + index``), so identical
    inputs and options are bit-reproducible, and the least-cost state wins.
    Moves keep each ridge in two facets, so only a simplex boundary has the
    fewest vertices, ``dim + 2``, and the least cost: reaching one ends the
    search, and the result succeeds exactly when its state is one.
    """
    if opts.mode not in ("strict", "free"):
        raise BadInput(f"unknown mode {opts.mode!r}")
    counts = (opts.max_steps, opts.restarts, opts.rng_seed)
    if not all(map(is_int, counts)) or opts.max_steps < 0 or opts.restarts < 1:
        raise BadInput("invalid search options")
    f = _check_sphere_candidate(k)
    lowest = 1 if opts.mode == "strict" else 0
    allowed = set(range(lowest, k.dim))  # the sweep owns type dim
    if is_boundary_of_simplex(k):
        return ReductionResult((), k, True, 0)
    best = None
    examined = 0
    for restart in range(opts.restarts):
        rng = random.Random(opts.rng_seed + restart)
        steps, found = _single_search(k, f, allowed, opts.max_steps, rng)
        examined += steps
        if best is None or found[0] < best[0]:
            best = found
        if is_boundary_of_simplex(best[2]):
            break
    _, moves, final = best
    return ReductionResult(moves, final, is_boundary_of_simplex(final), examined)


def canonical_form(k: Complex) -> tuple:
    """Relabeling-invariant key: the lexicographically smallest facet list
    over all bijections of the support onto ``0..v-1``.

    Factorial in the vertex count; meant for the small complexes the BFS
    oracle visits (<= 8 vertices or so).
    """
    support = sorted(k.support)
    positions = {v: i for i, v in enumerate(support)}
    best = None
    for perm in itertools.permutations(range(len(support))):
        relabeled = tuple(sorted(
            tuple(sorted(perm[positions[v]] for v in f)) for f in k.facets
        ))
        if best is None or relabeled < best:
            best = relabeled
    return best


def flip_distance_oracle(k: Complex, allowed_types, radius: int) -> Optional[int]:
    """Length of the shortest move sequence to a simplex boundary, by
    breadth-first search over the flip graph with states identified up to
    vertex relabeling.  ``None`` when no target lies within ``radius``.

    Independent of the annealing search: used as the test oracle for it.
    """
    if is_boundary_of_simplex(k):
        return 0
    frontier = [k]
    seen = {canonical_form(k)}
    for depth in range(1, radius + 1):
        next_frontier = []
        for state in frontier:
            for move in enumerate_moves(state, allowed_types):
                neighbor = apply_move(state, move)
                key = canonical_form(neighbor)
                if key in seen:
                    continue
                if is_boundary_of_simplex(neighbor):
                    return depth
                seen.add(key)
                next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            return None
    return None
