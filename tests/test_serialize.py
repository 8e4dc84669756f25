import copy
import hashlib
import json
import sys

import pytest

import flipcert as fc
from flipcert.complexes import BadDimension
from flipcert.errors import InputError
from flipcert.moves import Move, NotApplicable, ReplayFailure
from flipcert.polytopes import SimplePolytope
from flipcert.reduction import ReductionResult
from flipcert.serialize import (
    MalformedDocument,
    canonical_json,
    complex_digest,
    complex_from_doc,
    complex_to_doc,
    digest,
    dump,
    lambda_from_doc,
    lambda_to_doc,
    move_from_doc,
    move_sequence_from_doc,
    move_sequence_to_doc,
    move_to_doc,
    polytope_from_doc,
    polytope_to_doc,
)
from flipcert.quasitoric import ShapeMismatch
from flipcert.surgery import (
    MalformedCertificate,
    build_ledger,
    certificate_from_doc,
    certificate_to_doc,
    verify_certificate,
)

from conftest import B5_FACETS, run_python
from reference import cpn_pair


B5_CANONICAL = '{"dim":2,"facets":[[0,1,4],[0,1,5],[0,2,4],[0,2,5],[1,2,4],[1,2,5]]}'
B5_DIGEST = "sha256:7741b8a24f93e26c8be56d39b56dd70ebd61965b1d59280ca80093c225297525"


def test_complex_doc_normative_ordering(b5):
    doc = complex_to_doc(b5)
    assert doc["facets"] == sorted(doc["facets"])
    assert all(f == sorted(f) for f in doc["facets"])
    assert canonical_json(doc) == B5_CANONICAL


def test_complex_digest_golden(b5):
    assert complex_digest(b5) == B5_DIGEST
    # independent recomputation straight from hashlib
    raw = json.dumps(
        {"dim": 2, "facets": [sorted(f) for f in sorted(b5.facets)]},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    assert complex_digest(b5) == "sha256:" + hashlib.sha256(raw).hexdigest()


#: Runs certify, verify, reduce and apply through ``cli.main`` on the files
#: it is given, then tells whether OpenSSL's hash module got loaded; it
#: says why instead when the check cannot tell.
NO_OPENSSL = """
import importlib.util, json, sys
if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
    print(json.dumps({"skip": "no builtin SHA-256 module"}))
elif "_hashlib" in sys.modules:
    print(json.dumps({"skip": "_hashlib is loaded before flipcert"}))
else:
    from flipcert.cli import main
    polytope, dual, out = sys.argv[1:]
    codes = [
        main(["certify", polytope, "--output", out + "/cert.json"]),
        main(["verify", out + "/cert.json", "--output", out + "/report.json"]),
        main(["reduce", dual, "--output", out + "/result.json"]),
        main(["apply", dual, "--moves", out + "/result.json",
              "--output", out + "/final.json"]),
    ]
    print(json.dumps({"codes": codes, "loaded": "_hashlib" in sys.modules}))
"""


def test_commands_take_digests_without_openssl(tmp_path):
    dual = fc.dual_complex(fc.named_polytope("cube-4"))
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(polytope_to_doc(dual.polytope)))
    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps(complex_to_doc(dual.complex)))
    proc = run_python(["-c", NO_OPENSSL, str(ppath), str(kpath), str(tmp_path)],
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if "skip" in out:
        pytest.skip(out["skip"])
    assert out == {"codes": [0, 0, 0, 0], "loaded": False}


#: Takes the digests with the builtin SHA-256 modules hidden, so that
#: ``serialize`` falls back to ``hashlib``.
FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
import flipcert as fc
from flipcert.serialize import complex_digest, digest, sha256
from flipcert.surgery import build_ledger, certificate_to_doc
dual = fc.dual_complex(fc.named_polytope("cube-4"))
result = fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())
cert = certificate_to_doc(build_ledger(dual, result))
print(json.dumps({
    "hashlib": sha256 is hashlib.sha256,
    "b5": complex_digest(fc.Complex(2, json.loads(sys.argv[1]))),
    "cert": cert,
    "digest": digest(cert),
}))
"""


def test_hashlib_fallback_takes_the_same_digests():
    proc = run_python(["-c", FALLBACK, json.dumps(B5_FACETS)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    dual = fc.dual_complex(fc.named_polytope("cube-4"))
    result = fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())
    cert = certificate_to_doc(build_ledger(dual, result))
    assert out == {"hashlib": True, "b5": B5_DIGEST, "cert": cert,
                   "digest": digest(cert)}


def test_complex_round_trip(b5, octahedron, icosahedron):
    for k in (b5, octahedron, icosahedron):
        assert complex_from_doc(complex_to_doc(k)) == k


def test_complex_from_doc_rejects_garbage():
    with pytest.raises(MalformedDocument):
        complex_from_doc({"facets": [[0, 1]]})
    with pytest.raises(MalformedDocument):
        complex_from_doc({"dim": 1, "facets": [[0, "x"]]})
    with pytest.raises(MalformedDocument):
        complex_from_doc({"dim": True, "facets": [[0, 1]]})


def test_move_round_trip():
    move = Move((0, 1), (4, 5), 1)
    assert move_from_doc(move_to_doc(move)) == move
    assert move_to_doc(move) == {"type": 1, "sigma": [0, 1], "tau": [4, 5]}


def test_move_sequence_round_trip(b5):
    moves = [Move((4,), (0, 1, 2), 2)]
    doc = move_sequence_to_doc(b5, moves)
    assert doc["start_hash"] == B5_DIGEST
    start_hash, parsed = move_sequence_from_doc(doc)
    assert start_hash == B5_DIGEST and parsed == moves
    # bare lists are accepted too
    assert move_sequence_from_doc([move_to_doc(moves[0])]) == (None, moves)


def test_polytope_round_trip():
    for name, p in fc.corpus().items():
        assert polytope_from_doc(polytope_to_doc(p)) == p, name


def test_lambda_round_trip():
    pair = cpn_pair(3)
    doc = lambda_to_doc(pair)
    assert doc["rows"] == 3 and doc["cols"] == 4
    assert lambda_from_doc(doc, pair.polytope) == pair
    with pytest.raises(MalformedDocument):
        lambda_from_doc({"rows": 2, "cols": 3, "entries": [[1, 0, 0]]},
                        pair.polytope)
    with pytest.raises(ShapeMismatch):  # well formed, but not 3 x 4
        lambda_from_doc(lambda_to_doc(cpn_pair(2)), pair.polytope)


@pytest.fixture(scope="module")
def schema_bases(corpus_certs):
    """(valid document, parser, expected error) for each untrusted kind."""
    b5 = fc.Complex(2, B5_FACETS)
    pair = cpn_pair(2)
    return {
        "complex": (complex_to_doc(b5), complex_from_doc, MalformedDocument),
        "move": (move_to_doc(Move((0, 1), (4, 5), 1)), move_from_doc,
                 MalformedDocument),
        "move sequence": (
            move_sequence_to_doc(b5, [Move((4,), (0, 1, 2), 2)]),
            move_sequence_from_doc, MalformedDocument,
        ),
        "polytope": (polytope_to_doc(fc.named_polytope("prism")),
                     polytope_from_doc, MalformedDocument),
        "lambda": (lambda_to_doc(pair),
                   lambda doc: lambda_from_doc(doc, pair.polytope),
                   MalformedDocument),
        "certificate": (certificate_to_doc(corpus_certs["prism"][2]),
                        certificate_from_doc, MalformedCertificate),
    }


# (document kind, path to the edited value, value put there)
SCHEMA_CASES = [
    ("complex", ("dim",), True),
    ("complex", ("facets", 0, 1), "x"),
    ("complex", ("facets", 0), 3),
    ("move", ("type",), True),
    ("move", ("sigma", 0), "0"),
    ("move", ("tau", 1), False),
    ("move", ("tau",), "45"),
    ("move sequence", ("start_hash",), 5),
    ("move sequence", ("moves", 0, "sigma", 0), True),
    ("polytope", ("dim",), False),
    ("polytope", ("facets", 0), 7),
    ("polytope", ("vertices", 0), "012"),
    ("polytope", ("vertices", 0, 0), True),
    ("lambda", ("rows",), True),
    ("lambda", ("cols",), 3.0),
    ("lambda", ("entries", 0), 5),
    ("lambda", ("entries", 0, 0), "-1"),
    ("certificate", ("dual_hash",), 1),
    ("certificate", ("polytope", "vertices", 0), 1),
    ("certificate", ("reduction_moves", 0, "sigma", 0), True),
    ("certificate", ("steps", 0, "index"), True),
    ("certificate", ("steps", 0, "construction_type"), False),
    ("certificate", ("steps", 0, "sigma", 0), "1"),
    ("certificate", ("steps", 0, "tau"), [True]),
    ("certificate", ("steps", 0, "codimension"), True),
    ("certificate", ("steps", 0, "torus_rank_delta"), True),
    ("certificate", ("steps", 0, "post_f_vector", 0), "6"),
    ("certificate", ("base_stage", "extra_circles"), True),
    ("certificate", ("min_codimension",), True),
    ("certificate", ("min_codimension",), "4"),
    ("certificate", ("citations", 0), 0),
    ("certificate", ("verified",), 1),
]


@pytest.mark.parametrize(
    "kind,path,value", SCHEMA_CASES,
    ids=[f"{k}:{'/'.join(map(str, p))}={v!r}" for k, p, v in SCHEMA_CASES],
)
def test_schema_rejects_wrong_types(schema_bases, kind, path, value):
    base, parse, error = schema_bases[kind]
    parse(base)  # the unedited document is valid
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(error) as info:
        parse(doc)
    key = [k for k in path if isinstance(k, str)][-1]
    assert f"{key!r} must be" in str(info.value)
    if path[-1] == key:
        assert str(info.value).endswith(f"got {type(value).__name__}")


def test_min_codimension_may_be_null(corpus_certs):
    doc = certificate_to_doc(corpus_certs["simplex-3"][2])
    assert doc["min_codimension"] is None
    assert certificate_from_doc(doc).min_codimension is None
    doc = certificate_to_doc(corpus_certs["prism"][2])
    doc["min_codimension"] = None
    assert certificate_from_doc(doc).min_codimension is None


def test_start_hash_is_optional_and_may_be_null():
    moves = [move_to_doc(Move((4,), (0, 1, 2), 2))]
    assert move_sequence_from_doc({"moves": moves})[0] is None
    assert move_sequence_from_doc({"moves": moves, "start_hash": None})[0] is None


def test_reduce_output_is_unwrapped_once(b5):
    sequence = move_sequence_to_doc(b5, [Move((4,), (0, 1, 2), 2)])
    assert (move_sequence_from_doc({"moves": sequence, "final": {}})
            == move_sequence_from_doc(sequence))
    with pytest.raises(MalformedDocument) as info:
        move_sequence_from_doc({"moves": {"moves": {"moves": []}}})
    assert str(info.value) == "move sequence: 'moves' must be list, got dict"


def test_deep_move_sequence_is_refused_without_recursion():
    doc = []
    for _ in range(sys.getrecursionlimit() + 100):
        doc = {"moves": doc}
    with pytest.raises(MalformedDocument, match="'moves' must be list, got dict"):
        move_sequence_from_doc(doc)


def test_certificate_keys_are_checked_before_nested_records(corpus_certs):
    doc = certificate_to_doc(corpus_certs["prism"][2])
    doc["polytope"]["vertices"] = 1
    del doc["verified"]
    with pytest.raises(MalformedCertificate) as info:
        certificate_from_doc(doc)
    assert str(info.value) == "certificate: missing key 'verified'"


CUBE_3 = fc.named_polytope("cube-3")

#: The three gate holes, each a value of the wrong type that its gate once
#: let through, and the refusal it meets: ``Complex``'s dimension, the
#: replay's declared type (``apply_move``'s too) and ``SimplePolytope``'s
#: facet names.  Let through, each gave a document its own codec refuses.
GATE_HOLES = [
    ("complex dimension 1.0", lambda: fc.Complex(1.0, [(0, 1)]), BadDimension,
     "complex dimension must be an int, got 1.0"),
    ("complex dimension True", lambda: fc.Complex(True, [(0, 1)]), BadDimension,
     "complex dimension must be an int, got True"),
    ("complex dimension '1'", lambda: fc.Complex("1", [(0, 1)]), BadDimension,
     "complex dimension must be an int, got '1'"),
    ("replay, declared type True",
     lambda: fc.replay(fc.Complex(2, B5_FACETS), [Move((0, 1), (4, 5), True)]),
     ReplayFailure,
     "move 0 failed: NotApplicable: declared type True but sigma (0, 1) has type 1"),
    ("replay, declared type 2.0",
     lambda: fc.replay(fc.Complex(2, B5_FACETS), [Move((4,), (0, 1, 2), 2.0)]),
     ReplayFailure,
     "move 0 failed: NotApplicable: declared type 2.0 but sigma (4,) has type 2"),
    ("apply_move, declared type 1.0",
     lambda: fc.apply_move(fc.Complex(2, B5_FACETS), Move((0, 1), (4, 5), 1.0)),
     NotApplicable, "declared type 1.0 but sigma (0, 1) has type 1"),
    ("facet names 0..5", lambda: SimplePolytope(3, range(6), CUBE_3.vertices), InputError,
     "facet name 0 is not a string"),
    ("a list facet name",
     lambda: SimplePolytope(1, [["a"], "b"], [[0], [1]]), InputError,
     "facet name ['a'] is not a string"),
]


@pytest.mark.parametrize("label, build, error, text", GATE_HOLES,
                         ids=[row[0] for row in GATE_HOLES])
def test_each_gate_judges_the_type_of_what_it_keeps(label, build, error, text):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == text


def prism_typed_2_0():
    """The prism's reduction, its one move declared as type ``2.0``."""
    dual = fc.dual_complex(fc.named_polytope("prism"))
    result = fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())
    (move,) = result.moves
    typed = Move(move.sigma, move.tau, 2.0)
    return dual, ReductionResult((typed,), result.final, True, 1)


def cube_numbered():
    """cube-3's reduction, its facets named by ints."""
    dual = fc.dual_complex(SimplePolytope(3, range(6), CUBE_3.vertices))
    return dual, fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())


def established(build):
    """The certificate of ``build()``'s dual and reduction, if every gate
    lets them through and it verifies, else None."""
    try:
        cert = build_ledger(*build())
    except InputError:
        return None
    return cert if verify_certificate(cert).established else None


def test_every_established_certificate_decodes_from_its_json(corpus_certs):
    # a gate hole let a certificate establish that its own JSON refused
    certs = [established(lambda: entry[:2]) for entry in corpus_certs.values()]
    assert all(certs)
    certs += filter(None, map(established, (prism_typed_2_0, cube_numbered)))
    for cert in certs:
        assert certificate_from_doc(json.loads(dump(certificate_to_doc(cert)))) == cert
