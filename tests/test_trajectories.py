"""Golden search trajectories.

With default options (seed 0) each polytope below reduces along a fixed
move sequence.  The move count, ``steps_examined`` and the certificate
digest pin that trajectory, so a change to the search, the move
enumeration order or the certificate encoding shows up here.  Update these
values only in a change that sets out to alter the search and says so.
"""

import pytest

import flipcert as fc
from flipcert import serialize
from flipcert.surgery import build_ledger, certificate_to_doc

GOLDEN = {
    "cube-3": (3, 3, "sha256:e863646b32e9604d89b6a8adac399777caf675ded63185af0a9677275727cd4d"),
    "cube-4": (13, 24, "sha256:43c9d4ec1b68f09c9d1e474571bf8a4e4687efa122e8cc68c307e31c8520e2ac"),
    "prism": (1, 1, "sha256:723b58cdcddb7274a2c4953929f140ea87db0056bb14d15c6bb6616118d0d63a"),
    "dodecahedron": (19, 19, "sha256:dabd89cb23c4bbd314eccc42fd80b15f3ef7fda4800bc76ba4169f5768846627"),
    "cube-5": (76, 89, "sha256:7568e39dd667820df9ccb8be3784ba229d0b307e61ba0f5f3a001f1b9cd4d83a"),
    "cube-6": (417, 816, "sha256:7e85eaececa483e6abfd042e8eedb6dde04f22e288e5f7b33ca29def5a8bac5f"),
    "prism x prism": (75, 139, "sha256:ea76573a8c6c2993b16bd962bfdefd412d7523002a806af17bff797f0001cb91"),
}


def _polytope(name):
    if name == "prism x prism":
        prism = fc.named_polytope("prism")
        return fc.product(prism, prism)
    return fc.named_polytope(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_zero_trajectory(name):
    dual = fc.dual_complex(_polytope(name))
    result = fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())
    cert = build_ledger(dual, result)
    observed = (
        len(result.moves),
        result.steps_examined,
        serialize.digest(certificate_to_doc(cert)),
    )
    assert observed == GOLDEN[name]
