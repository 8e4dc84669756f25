"""Bistellar moves on pure simplicial complexes.

A move of type ``i`` on a complex of dimension ``n-1`` rewrites the star of a
``(n-1-i)``-face ``sigma`` whose link is the boundary of an ``i``-simplex
``tau`` not already present: the facets containing ``sigma`` are replaced by
``{s ∪ tau : s in boundary(sigma)}``.  Type 0 introduces a fresh vertex, type
``n-1`` deletes one, and the inverse move swaps the roles of ``sigma`` and
``tau``.
"""

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Optional

from .complexes import (
    Complex,
    NotAFace,
    as_simplex,
    faces_of_dimension,
    has_face,
    is_boundary_of_simplex,
    link,
)
from .errors import InputError


class NotApplicable(InputError):
    pass


class StaleTau(InputError):
    pass


class TauNotFresh(InputError):
    pass


@dataclass(frozen=True)
class Move:
    """One bistellar rewrite.  ``len(sigma) + len(tau) == dim + 2`` in the
    ambient complex, and ``move_type == len(tau) - 1``."""

    sigma: tuple
    tau: tuple
    move_type: int

    def __repr__(self):
        return f"Move(type={self.move_type}, sigma={self.sigma}, tau={self.tau})"


def fresh_vertex(k: Complex) -> int:
    """Canonical fresh vertex id for type-0 moves: max support id + 1."""
    return max(k.support, default=-1) + 1


def is_applicable(k: Complex, sigma) -> Optional[Move]:
    """The move at ``sigma``, if one exists.

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
    """Apply a bistellar move, validating it against the complex.

    The supplied ``tau`` must match the one derived from the link (type >= 1)
    or be a fresh vertex (type 0); mismatches are errors rather than silent
    fixes so that recorded sequences replay bit-exactly.
    """
    sigma = as_simplex(m.sigma)
    tau = as_simplex(m.tau)
    try:
        detected = is_applicable(k, sigma)
    except NotAFace:
        raise NotApplicable(f"sigma {sigma} is not a face")
    i = k.dim - (len(sigma) - 1)
    if m.move_type != i:
        raise NotApplicable(
            f"declared type {m.move_type} but sigma {sigma} has type {i}"
        )
    if detected is None:
        raise NotApplicable(f"link of {sigma} is not a usable simplex boundary")
    if i == 0:
        if len(tau) != 1:
            raise NotApplicable(f"type-0 tau must be a single vertex, got {tau}")
        if tau[0] in k.support:
            raise TauNotFresh(f"vertex {tau[0]} already in the support")
    elif detected.tau != tau:
        raise StaleTau(f"expected tau {detected.tau}, got {tau}")
    return _rewrite(k, join_boundary(sigma, tau), join_boundary(tau, sigma))


def join_boundary(a, b) -> list:
    """The facets of ``a * boundary(b)``, each ``a ∪ (b - v)`` sorted; a
    move rewrites ``sigma * boundary(tau)`` into ``boundary(sigma) * tau``."""
    return [tuple(sorted(a + b[:j] + b[j + 1:])) for j in range(len(b))]


def _rewrite(k: Complex, removed, added) -> Complex:
    """``k`` without the facets ``removed`` and with ``added``, unchecked:
    only for the net change of moves just found applicable on ``k`` (by
    ``apply_move``'s checks, ``enumerate_moves`` or the greedy sweep); a
    move ``(sigma, tau)`` removes ``join_boundary(sigma, tau)`` and adds
    ``join_boundary(tau, sigma)``."""
    kept = set(k.facets).difference(removed)
    return Complex._derived(k.dim, kept.union(added))


def inverse_move(m: Move) -> Move:
    """Swap the roles of sigma and tau; applying it undoes ``m`` exactly."""
    return Move(m.tau, m.sigma, len(m.sigma) - 1)


def enumerate_moves(k: Complex, allowed_types) -> list:
    """All applicable moves with a type in ``allowed_types``, sorted by
    (type, sigma).  Type-0 moves are reported once per facet with the
    canonical fresh vertex.

    Same result as ``is_applicable`` on every face, from one vertex-star
    index: ``star[v]`` is the bitmask of the facets containing ``v``, so the
    facets containing a face are the AND of its vertices' stars.  A face
    ``sigma`` of type ``i >= 1`` is a move exactly when it lies in ``i + 1``
    facets whose union minus ``sigma`` has ``i + 1`` vertices ``tau`` (the
    ``i + 1`` distinct residues are then all of ``boundary(tau)``) and the
    stars of ``tau`` share no facet (``tau`` is not a face).
    """
    allowed = sorted(set(allowed_types))
    if any(t < 0 or t > k.dim for t in allowed):
        raise InputError(
            f"move types {allowed} outside 0..{k.dim}"
        )
    facets = k.facets
    star = {}
    for index, f in enumerate(facets):
        for v in f:
            star[v] = star.get(v, 0) | 1 << index
    out = []
    for i in allowed:
        if i == 0:
            tau = (fresh_vertex(k),)
            out.extend(Move(f, tau, 0) for f in facets)
            continue
        for sigma in faces_of_dimension(k, k.dim - i):
            owners = reduce(and_, map(star.__getitem__, sigma))
            if owners.bit_count() != i + 1:
                continue
            rest = set()
            while owners:
                low = owners & -owners
                rest.update(facets[low.bit_length() - 1])
                owners ^= low
            rest.difference_update(sigma)
            if len(rest) != i + 1 or reduce(and_, map(star.__getitem__, rest)):
                continue
            out.append(Move(sigma, tuple(sorted(rest)), i))
    return out
