"""Search for a bistellar move sequence from a sphere to a simplex boundary.

Strict mode never emits a type-0 (vertex-adding) move, so the reversed,
construction-direction sequence uses only types ``0..dim-1``.  The search is
a greedy vertex-removal sweep interleaved with simulated annealing on the
lexicographic cost (vertex count, then face counts from the top dimension
down); failure after the step budget is a first-class result, never a
fabricated certificate.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex,
    euler_characteristic,
    f_vector,
    is_boundary_of_simplex,
    is_pseudomanifold,
)
from .errors import FlipcertError, InputError
from .moves import _rewrite, apply_move, enumerate_moves


class BadInput(InputError):
    pass


class ReplayFailure(FlipcertError):
    def __init__(self, index: int, reason: Exception):
        self.index = index
        self.reason = reason
        super().__init__(f"move {index} failed: {type(reason).__name__}: {reason}")


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


def _check_sphere_candidate(k: Complex) -> None:
    if k.dim < 0:
        raise BadInput("a sphere needs dimension >= 0")
    if k.dim == 0:
        # Dimension 0 admits no pseudomanifold test; the only sphere is a
        # point pair, which is already a simplex boundary.
        if len(k.support) != 2:
            raise BadInput("a 0-dimensional sphere must be exactly two points")
        return
    if not is_pseudomanifold(k):
        raise BadInput("input is not a pseudomanifold")
    expected = 1 + (-1) ** k.dim
    chi = euler_characteristic(k)
    if chi != expected:
        raise BadInput(
            f"Euler characteristic {chi} does not match "
            f"a {k.dim}-sphere ({expected})"
        )


def _cost(f: tuple) -> tuple:
    """Vertex count, then face counts from the top dimension down."""
    return (f[0],) + tuple(reversed(f))


def _f_vector_after(f: tuple, move) -> tuple:
    """The f-vector after ``move``, in closed form: the faces ``sigma ∪ r``
    (``r`` a proper subset of ``tau``) give way to ``tau ∪ r`` (``r`` a
    proper subset of ``sigma``).  Subsets are proper because a face has at
    most ``dim + 1 < len(sigma) + len(tau)`` vertices."""
    s, t = len(move.sigma), len(move.tau)
    return tuple(
        fe + (math.comb(s, e + 1 - t) if e + 1 >= t else 0)
        - (math.comb(t, e + 1 - s) if e + 1 >= s else 0)
        for e, fe in enumerate(f)
    )


def _greedy_vertex_removals(current, f, trail, allowed, counter):
    """Apply vertex-removing moves (type = dim) until none applies."""
    top = current.dim
    if top not in allowed:
        return current, f
    while True:
        candidates = enumerate_moves(current, {top})
        if not candidates:
            return current, f
        counter[0] += 1
        move = candidates[0]
        current = _rewrite(current, move.sigma, move.tau)
        f = _f_vector_after(f, move)
        trail.append(move)


def _single_search(k, allowed, max_steps, rng, counter):
    trail = []
    current, f = _greedy_vertex_removals(k, f_vector(k), trail, allowed, counter)
    best = (_cost(f), list(trail), current)
    for step in range(max_steps):
        if is_boundary_of_simplex(current):
            return trail, current, True, best
        candidates = enumerate_moves(current, allowed)
        if not candidates:
            break
        counter[0] += 1
        move = rng.choice(candidates)
        proposed = _f_vector_after(f, move)
        if _cost(proposed) > _cost(f):
            t = 0.99 ** (step // 50)
            # t underflows to 0.0 after about 3.7M steps, within reach of
            # --max-steps, and exp(-1/t) would then divide by zero
            if t <= 0 or rng.random() >= math.exp(-1.0 / t):
                continue
        current = _rewrite(current, move.sigma, move.tau)
        trail.append(move)
        current, f = _greedy_vertex_removals(
            current, proposed, trail, allowed, counter
        )
        if _cost(f) < best[0]:
            best = (_cost(f), list(trail), current)
    succeeded = is_boundary_of_simplex(current)
    return trail, current, succeeded, best


def reduce_to_simplex(k: Complex, opts: ReductionOptions = None) -> ReductionResult:
    """Search for a move sequence taking ``k`` to a simplex boundary.

    Restarts run with derived seeds (``rng_seed + index``); the first
    successful restart wins, which keeps identical inputs and options
    bit-reproducible.  On failure the result carries the best state seen.
    """
    if opts is None:
        opts = ReductionOptions()
    if opts.mode not in ("strict", "free"):
        raise BadInput(f"unknown mode {opts.mode!r}")
    if opts.max_steps < 0 or opts.restarts < 1:
        raise BadInput("invalid search options")
    _check_sphere_candidate(k)
    lowest = 1 if opts.mode == "strict" else 0
    allowed = set(range(lowest, k.dim + 1))
    counter = [0]
    if is_boundary_of_simplex(k):
        return ReductionResult((), k, True, 0)
    overall_best = None
    for restart in range(opts.restarts):
        rng = random.Random(opts.rng_seed + restart)
        trail, final, succeeded, best = _single_search(
            k, allowed, opts.max_steps, rng, counter
        )
        if succeeded:
            return ReductionResult(tuple(trail), final, True, counter[0])
        if overall_best is None or best[0] < overall_best[0]:
            overall_best = best
    _, best_trail, best_final = overall_best
    return ReductionResult(tuple(best_trail), best_final, False, counter[0])


def replay_states(k: Complex, moves):
    """Yield each complex a recorded move sequence reaches, in order; the
    first move that does not apply raises ``ReplayFailure`` with its index."""
    current = k
    for index, move in enumerate(moves):
        try:
            current = apply_move(current, move)
        except FlipcertError as exc:
            raise ReplayFailure(index, exc)
        yield current


def replay(k: Complex, moves) -> Complex:
    """Apply a recorded move sequence, reporting the first failing index."""
    current = k
    for current in replay_states(k, moves):
        pass
    return current


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
