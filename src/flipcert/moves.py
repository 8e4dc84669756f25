"""Bistellar moves on pure simplicial complexes.

A move of type ``i`` on a complex of dimension ``n-1`` rewrites the star of a
``(n-1-i)``-face ``sigma`` whose link is the boundary of an ``i``-simplex
``tau`` not already present: the facets containing ``sigma`` are replaced by
``{s ∪ tau : s in boundary(sigma)}``.  Type 0 introduces a fresh vertex, type
``n-1`` deletes one, and the inverse move swaps the roles of ``sigma`` and
``tau``.  This module alone decides which move sequences are valid:
``replay`` applies a sequence on vertex stars, judging each move in one
ordered pass of set intersections, and counts no faces; ``apply_move`` is a
one-move replay.  The checker, ``surgery``, takes the replay from here and
never imports the search.  ``is_applicable``, not exported, is the tests'
reference judge: it stays here for the benchmark tracer's spans.

A restart's only state is a ``FaceTable``, the one lister of faces here;
it keeps the table from move to move and builds a ``Complex`` only on request.
The search and the checker share the closed form of the f-vector change,
never a move test: a fault in the search's table can only lose a
reduction, never pass a move that the replay would refuse.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex,
    as_simplex,
    has_face,
    is_boundary_of_simplex,
    is_int,
    link,
)
from .errors import FlipcertError, InputError


class NotApplicable(InputError):
    pass


class StaleTau(InputError):
    pass


class TauNotFresh(InputError):
    pass


class ReplayFailure(FlipcertError):
    def __init__(self, index: int, reason: Exception):
        self.index = index
        self.reason = reason
        super().__init__(f"move {index} failed: {type(reason).__name__}: {reason}")


@dataclass(frozen=True)
class Move:
    """One bistellar rewrite.  ``len(sigma) + len(tau) == dim + 2`` in the
    ambient complex, and ``move_type == len(tau) - 1``."""

    sigma: tuple
    tau: tuple
    move_type: int

    def __repr__(self):
        return f"Move(type={self.move_type}, sigma={self.sigma}, tau={self.tau})"


def fresh_vertex(k) -> int:
    """Canonical fresh vertex id for type-0 moves: max support id + 1, read
    off the facets of a ``Complex`` or a ``FaceTable``."""
    return max(itertools.chain.from_iterable(k.facets), default=-1) + 1


def is_applicable(k: Complex, sigma) -> Optional[Move]:
    """The move at ``sigma``, if one exists: the reference judge, read off
    ``link`` and ``has_face``, that the tests hold ``apply_move`` to.

    A type-0 move (``sigma`` a facet) is always applicable with the canonical
    fresh vertex as ``tau``.  For type ``i >= 1`` the link of ``sigma`` must
    be the full boundary of an ``i``-simplex ``tau``, and ``tau`` must not be
    a face already; otherwise ``None``.  The empty face carries no move.
    """
    sigma = as_simplex(sigma)
    if not sigma:
        return None
    lk = link(k, sigma)  # raises NotAFace
    i = k.dim - (len(sigma) - 1)
    if i == 0:
        return Move(sigma, (fresh_vertex(k),), 0)
    if not is_boundary_of_simplex(lk):  # lk has dimension i - 1
        return None
    verts = tuple(sorted(lk.support))
    if has_face(k, verts):
        return None
    return Move(sigma, verts, i)


def apply_move(k: Complex, m: Move) -> Complex:
    """Apply a bistellar move: one replay step on the vertex stars of ``k``.
    A ``tau`` that is not the link's (type >= 1) or not a fresh vertex (type
    0) is refused, not fixed, so that recorded sequences replay bit-exactly."""
    star = _vertex_stars(k.facets)
    _apply(star, k.dim, m)
    return Complex._derived(k.dim, set().union(*star.values()))


def join_boundary(a, b) -> list:
    """The facets of ``a * boundary(b)``, each ``a ∪ (b - v)`` sorted; a
    move rewrites ``sigma * boundary(tau)`` into ``boundary(sigma) * tau``."""
    return [tuple(sorted(a + b[:j] + b[j + 1:])) for j in range(len(b))]


def inverse_move(m: Move) -> Move:
    """Swap the roles of sigma and tau; applying it undoes ``m`` exactly."""
    return Move(m.tau, m.sigma, len(m.sigma) - 1)


class FaceTable:
    """The search's index of one complex, kept across its moves.

    For each face size, filled on first use, every face maps to the list
    of facets containing it.  ``links[size]`` maps ``sigma`` to the move
    ``(sigma, tau)`` when the link of ``sigma`` is ``boundary(tau)``:
    ``sigma`` lies in ``i + 1`` facets (``i`` its type) whose union minus
    ``sigma`` has ``i + 1`` vertices, the ``i + 1`` distinct residues being
    then all of ``boundary(tau)``.  A listing keeps the moves whose ``tau``
    is not a face.  ``update`` rewrites only the faces of the facets a move
    removes or adds and marks them, and only marked faces are judged again,
    when their size is next listed.  ``snapshot`` builds the complex held.
    """

    def __init__(self, k: Complex):
        self.dim = k.dim
        self.facets = set(k.facets)
        self.owners, self.links, self.dirty = {}, {}, {}

    def _owners(self, size):
        owners = self.owners.get(size)
        if owners is None:
            owners = self.owners[size] = {}
            for facet in self.facets:
                for face in itertools.combinations(facet, size):
                    owners.setdefault(face, []).append(facet)
            self.links[size], self.dirty[size] = {}, set(owners)
        return owners

    def snapshot(self) -> Complex:
        return Complex._derived(self.dim, self.facets)

    def update(self, move):
        """Apply ``move``, found applicable on the complex held: remove the
        facets ``sigma * boundary(tau)``, then add ``boundary(sigma) * tau``."""
        removed = join_boundary(move.sigma, move.tau)
        added = join_boundary(move.tau, move.sigma)
        self.facets.difference_update(removed)
        self.facets.update(added)
        for size, owners in self.owners.items():
            dirty = self.dirty[size]
            for facet in removed:
                for face in itertools.combinations(facet, size):
                    held = owners[face]
                    held.remove(facet)
                    if not held:
                        del owners[face]
                    dirty.add(face)
            for facet in added:
                for face in itertools.combinations(facet, size):
                    owners.setdefault(face, []).append(facet)
                    dirty.add(face)

    def moves(self, i: int) -> list:
        """The type-``i`` moves, ``0 <= i <= dim``, sorted by ``sigma``;
        type 0 once per facet, with the canonical fresh vertex."""
        if i == 0:
            tau = (fresh_vertex(self),)
            return [Move(f, tau, 0) for f in sorted(self.facets)]
        size, need = self.dim + 1 - i, i + 1
        owners, links = self._owners(size), self.links[size]
        for sigma in self.dirty[size]:
            held = owners.get(sigma, ())
            rest = set().union(*held).difference(sigma) if len(held) == need else ()
            if len(rest) == need:
                links[sigma] = Move(sigma, tuple(sorted(rest)), i)
            else:
                links.pop(sigma, None)
        self.dirty[size].clear()
        faces = self.facets if i == self.dim else self._owners(need)
        listed = sorted((s, m) for s, m in links.items() if m.tau not in faces)
        return [m for _, m in listed]


def enumerate_moves(k, allowed_types) -> list:
    """All applicable moves with a type in ``allowed_types``, sorted by
    (type, sigma): the same result as ``is_applicable`` on every face.
    ``k`` is a ``Complex``, listed from a fresh ``FaceTable``, or the
    search's own table, listed as it stands."""
    allowed = sorted(set(allowed_types))
    if any(t < 0 or t > k.dim for t in allowed):
        raise InputError(f"move types {allowed} outside 0..{k.dim}")
    table = k if isinstance(k, FaceTable) else FaceTable(k)
    return [m for i in allowed for m in table.moves(i)]


@functools.cache
def f_vector_change(s: int, t: int) -> tuple:
    """What a move with ``len(sigma) == s`` and ``len(tau) == t`` adds to the
    f-vector of a complex of dimension ``s + t - 2``: ``C(s, j) - C(t, j)``
    in dimension ``e``, where ``j = s + t - 1 - e``; by symmetry that is
    ``C(s, e+1-t) - C(t, e+1-s)``, a negative lower index counting 0.

    Proof: the faces ``a ∪ b`` of ``sigma * boundary(tau)`` (``a ⊆ sigma``,
    ``b ⊊ tau``) give way to those of ``boundary(sigma) * tau`` (``a ⊊
    sigma``, ``b ⊆ tau``); those with ``a ⊊ sigma`` and ``b ⊊ tau`` stay,
    as does every face outside the star of ``sigma``.  So ``sigma ∪ b``,
    ``b ⊊ tau``, go: a facet holding one holds ``sigma``.  And ``a ∪ tau``,
    ``a ⊊ sigma``, appear: ``tau`` was no face.  In dimension ``e`` the
    first leave out ``j`` vertices of ``tau``, the second ``j`` of ``sigma``."""
    return tuple(math.comb(s, j) - math.comb(t, j) for j in range(s + t - 1, 0, -1))


def _vertex_stars(facets) -> dict:
    """Each vertex mapped to the set of ``facets`` holding it."""
    star = collections.defaultdict(set)
    for facet in facets:
        for v in facet:
            star[v].add(facet)
    return star


def _apply(star, dim: int, move):
    """Apply ``move`` in place to the vertex stars of a complex of dimension
    ``dim``, judged in one ordered pass.  ``held``, the facets that the stars
    of ``sigma``'s vertices share, and ``rest``, their vertices outside
    ``sigma``, make the link of a type-``i >= 1`` ``sigma`` ``boundary(rest)``
    iff each numbers ``i + 1`` and ``rest`` is no face.  The first fault is
    raised: ``sigma`` no face, the declared type, the link, a type-0 ``tau``
    not one fresh vertex, a ``tau`` not ``rest``; else ``held`` is rewritten."""
    sigma, tau = as_simplex(move.sigma), as_simplex(move.tau)
    s, i = len(sigma), dim + 1 - len(sigma)
    held = set.intersection(*(star[v] for v in sigma)) if s else ()
    rest = set().union(*held).difference(sigma)
    if s and not held:
        raise NotApplicable(f"sigma {sigma} is not a face")
    if not is_int(move.move_type) or move.move_type != i:
        raise NotApplicable(
            f"declared type {move.move_type} but sigma {sigma} has type {i}")
    if not s or i and (len(held) != i + 1 or len(rest) != i + 1
                       or set.intersection(*(star[v] for v in rest))):
        raise NotApplicable(f"link of {sigma} is not a usable simplex boundary")
    if i == 0 and len(tau) != 1:
        raise NotApplicable(f"type-0 tau must be a single vertex, got {tau}")
    if i == 0 and star[tau[0]]:
        raise TauNotFresh(f"vertex {tau[0]} already in the support")
    if i and rest != set(tau):
        raise StaleTau(f"expected tau {tuple(sorted(rest))}, got {tau}")
    for facet in held:
        for v in facet:
            star[v].discard(facet)
    for facet in join_boundary(tau, sigma):
        for v in facet:
            star[v].add(facet)


def replay(k: Complex, moves) -> Complex:
    """Apply a recorded move sequence and return its endpoint, or raise
    ``ReplayFailure`` at the first move that does not apply.  Only given a
    move, it keeps each vertex's star, the facets holding it, which each
    move steps by ``_apply``, as ``apply_move`` does for a single move."""
    if not moves:
        return k
    star = _vertex_stars(k.facets)
    for index, move in enumerate(moves):
        try:
            _apply(star, k.dim, move)
        except FlipcertError as exc:
            raise ReplayFailure(index, exc)
    return Complex(k.dim, set().union(*star.values()))
