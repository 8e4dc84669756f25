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
from flipcert.serialize import reduction_result_to_doc
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


#: Searches that exhaust their budget, keyed by (polytope, mode, max_steps,
#: restarts) at seed 0: the best trail's move count, ``steps_examined`` and
#: the digest of the reduction-result document, which carries the best state.
EXHAUSTED = {
    ("cube-4", "free", 60, 1): (39, 74, "sha256:24a4ac276bac0601b784d18ad87904cfdb8b77860c615340cae6a911d1763919"),
    ("dodecahedron", "free", 10, 3): (17, 46, "sha256:6aa6951d3879d7b5bdf0449b6dd723790cdb56dd8d040a8ac7819c849a15fd66"),
    ("cube-5", "strict", 40, 3): (25, 121, "sha256:5af0b565b2413e15e846832373307ffe81c639f497f23652839d3c5d80303aaa"),
    ("prism x prism", "strict", 60, 3): (23, 183, "sha256:14579a4fbe1222a2e79eb1ca15a210f4971377cca542677055bf0b64d40b001b"),
    ("cube-5", "strict", 30, 3): (0, 90, "sha256:4780343b7c3e294ccd2b1a0ba7f7291c9271d4a872c33ec73e66bf7ca3b90f37"),
}


@pytest.mark.parametrize("key", list(EXHAUSTED), ids=lambda key: "-".join(map(str, key)))
def test_exhausted_search_keeps_its_best_state(key):
    name, mode, max_steps, restarts = key
    k = fc.dual_complex(_polytope(name)).complex
    opts = fc.ReductionOptions(mode=mode, max_steps=max_steps, restarts=restarts)
    result = fc.reduce_to_simplex(k, opts)
    assert not result.succeeded
    assert fc.replay(k, result.moves) == result.final
    observed = (
        len(result.moves),
        result.steps_examined,
        serialize.digest(reduction_result_to_doc(k, result)),
    )
    assert observed == EXHAUSTED[key]
