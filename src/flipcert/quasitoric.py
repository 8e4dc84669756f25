"""Characteristic data over a simple polytope and the freeness check.

The subtorus whose quotient yields a quasitoric manifold is encoded as the
kernel of the torus map induced by an integer matrix with one column per
facet.  The action is free exactly when every vertex minor (the columns of
the facets meeting at that vertex) has determinant ±1; determinants are
computed in exact integer arithmetic, so the ±1 test never sees rounding.
"""

from dataclasses import dataclass

from .complexes import is_int
from .errors import FlipcertError, InputError
from .polytopes import SimplePolytope


class ShapeMismatch(InputError):
    pass


class NotFree(FlipcertError):
    pass


@dataclass(frozen=True)
class CharacteristicPair:
    """A polytope with an integer matrix assigning a column to each facet,
    stored as the tuple of row tuples it was checked as; a matrix of any
    other shape raises ``ShapeMismatch``.  An exact ``int`` entry passes
    its type test inline; any other goes to ``is_int``."""

    polytope: SimplePolytope
    matrix: tuple  # n rows of m integers each, row-major

    def __post_init__(self):
        n = self.polytope.dim
        m = self.polytope.facet_count
        rows, seq = self.matrix, (tuple, list)  # judged before a wording takes len
        if not isinstance(rows, seq) or not all(isinstance(r, seq) for r in rows):
            raise ShapeMismatch("matrix must be a tuple or list of rows, each one too")
        if len(rows) != n:
            raise ShapeMismatch(f"matrix has {len(rows)} rows, expected {n}")
        for row in rows:
            if len(row) != m:
                raise ShapeMismatch(f"row of length {len(row)}, expected {m} columns")
            for entry in row:
                if not (type(entry) is int or is_int(entry)):
                    raise ShapeMismatch(f"non-integer entry {entry!r}")
        object.__setattr__(self, "matrix", tuple(map(tuple, rows)))


@dataclass(frozen=True)
class FreenessReport:
    ok: bool
    failing_vertices: tuple  # (vertex index, determinant) pairs


def det_int(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in matrix]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(size - 1):
        if a[i][i] == 0:
            for r in range(i + 1, size):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def vertex_minor_determinant(pair: CharacteristicPair, vertex) -> int:
    cols = sorted(vertex)
    minor = [[row[c] for c in cols] for row in pair.matrix]
    return det_int(minor)


def check_freeness(pair: CharacteristicPair) -> FreenessReport:
    """Per-vertex determinant test for a free subtorus action.

    A vertex passes iff its minor has determinant ±1; failures are reported
    with the offending determinant value.
    """
    failing = []
    for index, vertex in enumerate(pair.polytope.vertices):
        det = vertex_minor_determinant(pair, vertex)
        if det not in (1, -1):
            failing.append((index, det))
    return FreenessReport(ok=not failing, failing_vertices=tuple(failing))


def quotient_descriptor(pair: CharacteristicPair) -> dict:
    """Dimension bookkeeping for the free quotient: manifold dimension 2n,
    acting torus rank n, moment-angle dimension m+n, quotiented rank m-n."""
    report = check_freeness(pair)
    if not report.ok:
        raise NotFree(
            f"action is not free at vertices {[v for v, _ in report.failing_vertices]}"
        )
    n = pair.polytope.dim
    m = pair.polytope.facet_count
    return {
        "manifold_dim": 2 * n,
        "torus_action_rank": n,
        "moment_angle_dim": m + n,
        "quotient_torus_rank": m - n,
    }
