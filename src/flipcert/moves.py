"""Bistellar moves on pure simplicial complexes.

A move of type ``i`` on a complex of dimension ``n-1`` rewrites the star of a
``(n-1-i)``-face ``sigma`` whose link is the boundary of an ``i``-simplex
``tau`` not already present: the facets containing ``sigma`` are replaced by
``{s ∪ tau : s in boundary(sigma)}``.  Type 0 introduces a fresh vertex, type
``n-1`` deletes one, and the inverse move swaps the roles of ``sigma`` and
``tau``.  This module alone decides which move sequences are valid: a
sequence replays on a face table, accepting a move by lookups and
recounting only the faces it rewrites.  The checker, ``surgery``, takes
the replay from here and never imports the search.

The search's only state is a ``FaceTable`` that it keeps from move to
move: it lists moves from the table and builds a ``Complex`` from it only
on request.  The replay's count table stays a separate structure: a
certificate is sound because the checker shares none of the search's fast
path, so a fault in the search's table can only lose a reduction, never
pass a move that the replay would refuse.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex,
    NotAFace,
    as_simplex,
    has_face,
    is_boundary_of_simplex,
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
    kept = set(k.facets).difference(join_boundary(sigma, tau))
    return Complex._derived(k.dim, kept.union(join_boundary(tau, sigma)))


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


def _recount(table, f, added, removed):
    """Count the faces of the ``added`` facets into the face table, then of
    the ``removed`` ones out; a count crossing zero changes ``f``."""
    for d in range(len(f)):
        change = 0
        for facet in added:
            for face in itertools.combinations(facet, d + 1):
                count = table.get(face, 0)
                if not count:
                    change += 1
                table[face] = count + 1
        for facet in removed:
            for face in itertools.combinations(facet, d + 1):
                count = table.pop(face) - 1
                if count:
                    table[face] = count
                else:
                    change -= 1
        f[d] += change


def replay_f_vectors(k: Complex, moves) -> tuple:
    """Apply a recorded move sequence; return its endpoint and the f-vector
    of the complex each move starts from, or raise ``ReplayFailure`` at the
    first move that does not apply.  The face table, built only when there
    is a move, maps each non-empty face to its number of facets: a move
    ``(sigma, tau)`` of type ``i`` applies, as in ``apply_move``, iff
    ``sigma`` lies in ``i + 1`` facets, ``tau`` has ``i + 1`` vertices and
    is not a face, and ``sigma * boundary(tau)`` consists of facets."""
    if not moves:
        return k, []
    facets, table, f = set(k.facets), {}, [0] * (k.dim + 1)
    _recount(table, f, facets, ())
    pre_f_vectors = []
    for index, move in enumerate(moves):
        try:
            sigma, tau = as_simplex(move.sigma), as_simplex(move.tau)
            removed = join_boundary(sigma, tau)
            # a vertex sigma and tau share makes the type-0 tau a face, or
            # repeats in some sigma + (tau - v), which is then no facet
            if not (move.move_type == k.dim + 1 - len(sigma) == len(tau) - 1
                    and table.get(sigma) == len(tau) and tau not in table
                    and facets.issuperset(removed)):
                apply_move(Complex(k.dim, facets), move)  # raises the reason
                raise AssertionError(f"the face table rejects move {index}")
        except FlipcertError as exc:
            raise ReplayFailure(index, exc)
        pre_f_vectors.append(tuple(f))
        added = join_boundary(tau, sigma)
        facets.difference_update(removed)
        facets.update(added)
        _recount(table, f, added, removed)
    return Complex(k.dim, facets), pre_f_vectors
