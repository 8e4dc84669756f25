"""Plain reference paths that the package no longer needs itself, kept for
the tests that hold its fast paths to them."""

import itertools


def faces_of_dimension(k, d: int) -> list:
    """All ``d``-faces of ``k``, sorted.  ``d`` must lie in ``0..k.dim``."""
    out = set()
    for f in k.facets:
        out.update(itertools.combinations(f, d + 1))
    return sorted(out)
