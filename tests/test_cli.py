import hashlib
import io
import json
import os
import pathlib
import threading

import pytest

import flipcert as fc
from flipcert.cli import _options_from_args, build_parser, main
from flipcert.serialize import (
    complex_to_doc,
    lambda_to_doc,
    move_sequence_to_doc,
    polytope_to_doc,
)
from flipcert.moves import Move
from flipcert.surgery import build_ledger, certificate_to_doc

from conftest import (
    B5_FACETS,
    SHRINKABLE_NON_PSEUDOMANIFOLDS,
    certificate_mutation_sites,
    count_calls,
    run_python,
    simplex_segment_reduction,
)
from reference import cpn_pair


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_examples_emits_corpus(capsys, tmp_path):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == set(fc.corpus())
    assert doc["cube-3"]["dim"] == 3


def test_build_dual(capsys, tmp_path):
    path = write_json(tmp_path / "p.json", polytope_to_doc(fc.simplex_polytope(3)))
    code, out, _ = run(capsys, ["build-dual", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and len(doc["facets"]) == 4


def test_moves_listing(capsys, tmp_path):
    path = write_json(
        tmp_path / "k.json", complex_to_doc(fc.Complex(2, B5_FACETS))
    )
    code, out, _ = run(capsys, ["moves", path, "--types", "2"])
    assert code == 0
    assert json.loads(out) == {"moves": [
        {"sigma": [4], "tau": [0, 1, 2], "type": 2},
        {"sigma": [5], "tau": [0, 1, 2], "type": 2},
    ]}


def test_apply_replays_sequence(capsys, tmp_path):
    b5 = fc.Complex(2, B5_FACETS)
    kpath = write_json(tmp_path / "k.json", complex_to_doc(b5))
    mpath = write_json(
        tmp_path / "m.json",
        move_sequence_to_doc(b5, [Move((4,), (0, 1, 2), 2)]),
    )
    code, out, _ = run(capsys, ["apply", kpath, "--moves", mpath])
    assert code == 0
    assert json.loads(out)["facets"] == [[0, 1, 2], [0, 1, 5], [0, 2, 5], [1, 2, 5]]


def test_apply_detects_stale_start_hash(capsys, tmp_path):
    b5 = fc.Complex(2, B5_FACETS)
    other = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    kpath = write_json(tmp_path / "k.json", complex_to_doc(other))
    mpath = write_json(
        tmp_path / "m.json", move_sequence_to_doc(b5, [Move((4,), (0, 1, 2), 2)])
    )
    code, _, err = run(capsys, ["apply", kpath, "--moves", mpath])
    assert code == 1
    assert json.loads(err)["code"] == "StartHashMismatch"


def test_apply_failed_replay_exits_one(capsys, tmp_path):
    b5 = fc.Complex(2, B5_FACETS)
    kpath = write_json(tmp_path / "k.json", complex_to_doc(b5))
    mpath = write_json(
        tmp_path / "m.json",
        [{"type": 0, "sigma": [0, 1, 2], "tau": [9]}],
    )
    code, _, err = run(capsys, ["apply", kpath, "--moves", mpath])
    assert code == 1
    assert json.loads(err)["code"] == "ReplayFailure"


EMPTY_FACE_MOVE = {"type": 3, "sigma": [], "tau": [0, 1, 2, 3]}


def test_apply_empty_face_move_exits_one(capsys, tmp_path):
    tetrahedron = fc.dual_complex(fc.named_polytope("simplex-3")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(tetrahedron))
    mpath = write_json(tmp_path / "m.json", [EMPTY_FACE_MOVE])
    code, out, err = run(capsys, ["apply", kpath, "--moves", mpath])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    diagnostic = json.loads(err)
    assert diagnostic["code"] == "ReplayFailure"
    assert diagnostic["message"].startswith("move 0 failed: NotApplicable")


def test_verify_empty_face_move_exits_one(capsys, tmp_path):
    ppath = write_json(
        tmp_path / "p.json", polytope_to_doc(fc.named_polytope("simplex-3"))
    )
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", ppath, "--output", str(cert_path)])
    assert code == 0
    cert_doc = json.loads(cert_path.read_text())
    cert_doc["reduction_moves"] = [EMPTY_FACE_MOVE]
    bad_path = write_json(tmp_path / "bad.json", cert_doc)
    code, out, err = run(capsys, ["verify", bad_path])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["reduction-replay"]["ok"]
    assert checks["reduction-replay"]["detail"].startswith(
        "move 0 failed: NotApplicable"
    )
    assert json.loads(err)["code"] == "VerificationRefuted"


def test_reduce_strict(capsys, tmp_path):
    octa = fc.dual_complex(fc.named_polytope("cube-3")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(octa))
    code, out, _ = run(capsys, ["reduce", kpath, "--mode", "strict", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["succeeded"]
    assert all(m["type"] >= 1 for m in doc["moves"]["moves"])


def test_reduce_outputs_are_byte_identical(capsys, tmp_path):
    octa = fc.dual_complex(fc.named_polytope("cube-3")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(octa))
    _, first, _ = run(capsys, ["reduce", kpath, "--seed", "5"])
    _, second, _ = run(capsys, ["reduce", kpath, "--seed", "5"])
    assert first == second


def test_reduce_rejects_bad_input(capsys, tmp_path):
    broken = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    kpath = write_json(tmp_path / "k.json", complex_to_doc(broken))
    code, _, err = run(capsys, ["reduce", kpath])
    assert code == 2
    assert json.loads(err)["code"] == "BadInput"


def test_reduce_rejects_negative_dimension(capsys, tmp_path):
    kpath = write_json(tmp_path / "k.json", {"dim": -1, "facets": [[]]})
    code, out, err = run(capsys, ["reduce", kpath])
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["code"] == "BadInput"
    assert diagnostic["message"] == "a sphere needs dimension >= 0"


def test_certify_and_verify_round_trip(capsys, tmp_path):
    ppath = write_json(
        tmp_path / "prism.json", polytope_to_doc(fc.named_polytope("prism"))
    )
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", ppath, "--output", str(cert_path)])
    assert code == 0
    cert_doc = json.loads(cert_path.read_text())
    assert len(cert_doc["steps"]) == 1 and cert_doc["verified"]

    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 0
    assert json.loads(out)["established"]

    cert_doc["steps"][0]["codimension"] = 2
    bad_path = write_json(tmp_path / "bad.json", cert_doc)
    code, out, err = run(capsys, ["verify", bad_path])
    assert code == 1
    assert not json.loads(out)["established"]
    assert json.loads(err)["code"] == "VerificationRefuted"


#: The verifier's checks, in report order.
CHECK_NAMES = [
    "dual-hash", "reduction-replay", "steps-mirror-moves",
    "codimension-formula", "construction-replay", "torus-rank-deltas",
    "extra-circles", "base-stage", "min-codimension",
    "codimension-threshold", "citations-intact", "verified-flag",
]


def test_passing_checks_carry_no_detail(capsys, tmp_path, corpus_certs):
    for name, (_, _, cert) in corpus_certs.items():
        report = fc.verify_certificate(cert)
        assert [c.name for c in report.checks] == CHECK_NAMES, name
        assert [c.detail for c in report.checks] == [""] * 12, name

        path = write_json(tmp_path / f"{name}.json", certificate_to_doc(cert))
        code, out, err = run(capsys, ["verify", path])
        assert (code, err) == (0, ""), name
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == CHECK_NAMES, name
        assert all(c["ok"] and c["detail"] == "" for c in doc["checks"]), name


def test_certify_with_lambda_and_statement(capsys, tmp_path):
    pair = cpn_pair(2)
    ppath = write_json(tmp_path / "p.json", polytope_to_doc(pair.polytope))
    lpath = write_json(tmp_path / "l.json", lambda_to_doc(pair))
    spath = tmp_path / "statement.json"
    code, out, _ = run(capsys, [
        "certify", ppath, "--lambda", lpath, "--statement", str(spath),
    ])
    assert code == 0
    statement = json.loads(spath.read_text())
    assert statement["quotient"]["manifold_dim"] == 4
    assert len(statement["clauses"]) == 4


def test_certify_with_non_free_lambda_exits_one(capsys, tmp_path):
    polytope = fc.simplex_polytope(2)
    ppath = write_json(tmp_path / "p.json", polytope_to_doc(polytope))
    singular = {"rows": 2, "cols": 3, "entries": [[0, 1, 0], [0, 0, 1]]}
    lpath = write_json(tmp_path / "l.json", singular)
    code, _, err = run(capsys, ["certify", ppath, "--lambda", lpath])
    assert code == 1
    assert json.loads(err)["code"] == "NotFree"


def test_check_freeness(capsys, tmp_path):
    pair = cpn_pair(3)
    ppath = write_json(tmp_path / "p.json", polytope_to_doc(pair.polytope))
    lpath = write_json(tmp_path / "l.json", lambda_to_doc(pair))
    code, out, _ = run(capsys, ["check-freeness", ppath, "--lambda", lpath])
    assert code == 0 and json.loads(out)["ok"]

    singular = {"rows": 3, "cols": 4,
                "entries": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    lpath2 = write_json(tmp_path / "l2.json", singular)
    code, out, _ = run(capsys, ["check-freeness", ppath, "--lambda", lpath2])
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and report["failing_vertices"]


def test_malformed_input_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["build-dual", str(path)])
    assert code == 2
    assert json.loads(err)["code"] == "MalformedDocument"


@pytest.mark.parametrize("raw", [
    b"[" * 200000 + b"]" * 200000,  # deeper than the decoder's recursion limit
    b"\xff\xfe{}",  # not UTF-8
], ids=["deep-nesting", "not-utf8"])
def test_undecodable_input_exits_two(capsys, tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "MalformedDocument"


@pytest.mark.parametrize("types", ["a", "1,,2"])
def test_moves_rejects_malformed_types(capsys, tmp_path, types):
    path = write_json(
        tmp_path / "k.json", complex_to_doc(fc.Complex(2, B5_FACETS))
    )
    code, out, err = run(capsys, ["moves", path, "--types", types])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "InputError"


def test_certify_rejects_misshapen_lambda_before_searching(
        capsys, tmp_path, monkeypatch):
    import flipcert.cli

    def no_search(*args, **kwargs):
        raise AssertionError("search ran before the lambda shape check")

    monkeypatch.setattr(flipcert.cli, "reduce_to_simplex", no_search)
    ppath = write_json(
        tmp_path / "cube.json", polytope_to_doc(fc.named_polytope("cube-3"))
    )
    lpath = write_json(tmp_path / "l.json", lambda_to_doc(cpn_pair(2)))
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, [
        "certify", ppath, "--lambda", lpath, "--output", str(cert_path),
    ])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "ShapeMismatch"
    assert not cert_path.exists()


#: The 7-vertex Möbius torus: a pseudomanifold, but no 2-sphere.
TORUS_7 = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)] + [
    [i, (i + 2) % 7, (i + 3) % 7] for i in range(7)
]
SQUARE = [[0, 1], [1, 2], [2, 3], [0, 3]]
SEGMENT = {"dim": 1, "facets": ["a", "b"], "vertices": [[0], [1]]}
CUBE_3 = polytope_to_doc(fc.named_polytope("cube-3"))
#: cube-3's opposite facets 2k, 2k+1 share the k-th unit column.
PAIRED_IDENTITY = {"rows": 3, "cols": 6, "entries": [
    [1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1],
]}


def _statement_quotient(out, paths):
    with open(paths["@statement"]) as handle:
        statement = json.load(handle)
    assert statement["quotient"]["description"] == (
        "quotient of the moment-angle manifold by a freely acting rank-3 "
        "subtorus, of dimension 6"
    )


def _two_points(out, paths):
    assert json.loads(out) == {"dim": 0, "facets": [[0], [1]]}


def _no_output(out, paths):
    assert out == ""


def _lists_every_type(out, paths):
    assert {m["type"] for m in json.loads(out)["moves"]} == {0, 1}


def cli_case(name, argv, files=None, exit_code=2, code=None, message=None,
             location=None, stdin=None, check=None):
    """``argv`` items starting with ``@`` name files under the test's
    directory, written from ``files`` when listed there.  ``message`` is the
    diagnostic's full text, with ``{@name}`` standing for that file's path,
    or a tuple of the texts it may be."""
    return pytest.param(
        argv, files or {}, exit_code, code, message, location, stdin, check,
        id=name,
    )


def _repeat_first_index(polytope_doc):
    """The polytope with its first vertex listed with its first facet index
    twice: a vertex still on ``dim`` distinct facets, so it used to pass."""
    first, *rest = polytope_doc["vertices"]
    return dict(polytope_doc, vertices=[first[:1] + first, *rest])


TRIANGLE_DUAL = fc.dual_complex(fc.simplex_polytope(2))
TRIANGLE_CERT = certificate_to_doc(
    fc.build_ledger(TRIANGLE_DUAL, fc.reduce_to_simplex(TRIANGLE_DUAL.complex))
)
REPEATED_INDEX = "polytope: vertex [0, 0, 1] repeats a facet index"

#: The triangle's certificate polytope, emptied: no facets, no vertices.
NO_VERTICES = dict(TRIANGLE_CERT["polytope"], facets=[], vertices=[])
NO_VERTEX = "a polytope needs at least one vertex"

#: A ``--moves`` document nested 1,200 levels deep, past the recursion
#: limit: refused by the JSON decoder or by the move-sequence decoder,
#: whichever the interpreter's recursion limits leave to refuse it.
DEEP_MOVES = '{"moves":' * 1200 + "[]" + "}" * 1200
DEEP_MOVES_REFUSALS = (
    "-: maximum recursion depth exceeded while decoding a JSON object from a "
    "unicode string",
    "move sequence: 'moves' must be list, got dict",
)

CLI_CASES = [
    cli_case("reduce-torus", ["reduce", "@k"],
             {"@k": {"dim": 2, "facets": TORUS_7}}, code="BadInput",
             message="Euler characteristic 0 does not match a 2-sphere (2)"),
    # the sphere refusals, met only where the sweep falls short of a
    # simplex boundary: the disk's inner vertex is swept away first
    cli_case("reduce-disk", ["reduce", "@k"],
             {"@k": {"dim": 2, "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]}},
             code="BadInput", message="input is not a pseudomanifold",
             check=_no_output),
    cli_case("reduce-two-spheres-at-a-vertex", ["reduce", "@k"],
             {"@k": {"dim": 2, "facets": [
                 [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                 [0, 4, 5], [0, 4, 6], [0, 5, 6], [4, 5, 6]]}},
             code="BadInput", message="input is not a pseudomanifold",
             check=_no_output),
    # the same refusal where the sweep removes vertices first: the gate
    # reads the swept state, a pseudomanifold iff the input is one
    *(cli_case(f"reduce-{name}", ["reduce", "@k"], {"@k": {"dim": 2, "facets": facets}},
               code="BadInput", message="input is not a pseudomanifold",
               check=_no_output)
      for name, facets in SHRINKABLE_NON_PSEUDOMANIFOLDS.items()),
    cli_case("reduce-three-points", ["reduce", "@k"],
             {"@k": {"dim": 0, "facets": [[0], [1], [2]]}}, code="BadInput",
             message="a 0-dimensional sphere must be exactly two points",
             check=_no_output),
    cli_case("reduce-empty-simplex", ["reduce", "@k"],
             {"@k": {"dim": -1, "facets": [[]]}}, code="BadInput",
             message="a sphere needs dimension >= 0", check=_no_output),
    cli_case("reduce-no-facets", ["reduce", "@k"],
             {"@k": {"dim": 1, "facets": []}}, code="EmptyComplex",
             message="a complex needs at least one facet"),
    cli_case("build-dual-dim-0", ["build-dual", "@p"],
             {"@p": {"dim": 0, "facets": ["a"], "vertices": [[0]]}},
             code="BadDimension", message="polytope dimension must be >= 1, got 0"),
    cli_case("build-dual-duplicate-name", ["build-dual", "@p"],
             {"@p": dict(SEGMENT, facets=["a", "a"])},
             code="DuplicateFacetName", message="facet names must be distinct"),
    cli_case("build-dual-unused-facet", ["build-dual", "@p"],
             {"@p": dict(SEGMENT, facets=["a", "b", "c"])},
             code="UnusedFacet", message="facets [2] appear in no vertex"),
    cli_case("build-dual-repeated-index", ["build-dual", "@p"],
             {"@p": _repeat_first_index(TRIANGLE_CERT["polytope"])},
             code="MalformedDocument", message=REPEATED_INDEX, check=_no_output),
    cli_case("certify-repeated-index", ["certify", "@p"],
             {"@p": _repeat_first_index(TRIANGLE_CERT["polytope"])},
             code="MalformedDocument", message=REPEATED_INDEX, check=_no_output),
    cli_case("verify-repeated-index", ["verify", "@c"],
             {"@c": dict(TRIANGLE_CERT, polytope=_repeat_first_index(
                 TRIANGLE_CERT["polytope"]))},
             code="MalformedCertificate", message=REPEATED_INDEX,
             check=_no_output),
    cli_case("build-dual-no-vertices", ["build-dual", "@p"],
             {"@p": NO_VERTICES}, code="NoVertices", message=NO_VERTEX,
             check=_no_output),
    cli_case("check-freeness-no-vertices",
             ["check-freeness", "@p", "--lambda", "@l"],
             {"@p": NO_VERTICES, "@l": {"rows": 2, "cols": 0, "entries": [[], []]}},
             code="NoVertices", message=NO_VERTEX, check=_no_output),
    cli_case("verify-no-vertices", ["verify", "@c"],
             {"@c": dict(TRIANGLE_CERT, polytope=NO_VERTICES)},
             code="MalformedCertificate", message=NO_VERTEX, check=_no_output),
    cli_case("check-freeness-shape", ["check-freeness", "@p", "--lambda", "@l"],
             {"@p": SEGMENT,
              "@l": {"rows": 1, "cols": 3, "entries": [[1, 1, 1]]}},
             code="ShapeMismatch", message="row of length 3, expected 2 columns"),
    cli_case("reduce-no-restarts", ["reduce", "@k", "--restarts", "0"],
             {"@k": {"dim": 1, "facets": SQUARE}}, code="BadInput",
             message="invalid search options"),
    cli_case("reduce-negative-steps", ["reduce", "@k", "--max-steps", "-1"],
             {"@k": {"dim": 1, "facets": SQUARE}}, code="BadInput",
             message="invalid search options"),
    cli_case("moves-unknown-type", ["moves", "@k", "--types", "5"],
             {"@k": {"dim": 1, "facets": [[0, 1], [1, 2], [0, 2]]}},
             code="InputError", message="move types [5] outside 0..1"),
    cli_case("apply-short-tau", ["apply", "@k", "--moves", "@m"],
             {"@k": {"dim": 2, "facets": B5_FACETS},
              "@m": [{"type": 0, "sigma": [0, 1, 4], "tau": [7, 8]}]},
             exit_code=1, code="ReplayFailure",
             message="move 0 failed: NotApplicable: type-0 tau must be a "
                     "single vertex, got (7, 8)"),
    # {∅} has no vertex stars: the refusal is worded from the move, not from
    # a complex rebuilt from the stars, which would have no facet at all
    cli_case("apply-empty-complex", ["apply", "@k", "--moves", "@m"],
             {"@k": {"dim": -1, "facets": [[]]},
              "@m": [{"type": 0, "sigma": [], "tau": [0]}]},
             exit_code=1, code="ReplayFailure",
             message="move 0 failed: NotApplicable: link of () is not a usable "
                     "simplex boundary", check=_no_output),
    cli_case("apply-deep-moves", ["apply", "@k", "--moves", "-"],
             {"@k": {"dim": 2, "facets": B5_FACETS}}, stdin=DEEP_MOVES,
             code="MalformedDocument", message=DEEP_MOVES_REFUSALS,
             check=_no_output),
    cli_case("moves-every-type", ["moves", "@k"],
             {"@k": {"dim": 1, "facets": SQUARE}}, exit_code=0,
             check=_lists_every_type),
    cli_case("missing-input", ["build-dual", "@missing"], code="IOError",
             message="[Errno 2] No such file or directory: '{@missing}'",
             location="@missing"),
    cli_case("stdin-input", ["build-dual", "-"], exit_code=0,
             stdin=json.dumps(SEGMENT), check=_two_points),
    cli_case("certify-rank-3-statement",
             ["certify", "@p", "--lambda", "@l", "--statement", "@statement"],
             {"@p": CUBE_3, "@l": PAIRED_IDENTITY}, exit_code=0,
             check=_statement_quotient),
    cli_case("apply-bad-moves-file", ["apply", "@k", "--moves", "@m"],
             {"@k": {"dim": 2, "facets": B5_FACETS},
              "@m": [{"type": 2, "sigma": [4], "tau": "x"}]},
             code="MalformedDocument",
             message="move: 'tau' must be list of int, got str", location="@m"),
    cli_case("certify-bad-lambda-file", ["certify", "@p", "--lambda", "@l"],
             {"@p": CUBE_3, "@l": dict(PAIRED_IDENTITY, entries=[
                 [1, True, 0, 0, 0, 0], *PAIRED_IDENTITY["entries"][1:]])},
             code="MalformedDocument", location="@l",
             message="lambda: 'entries' must be list of list of int, got list"),
    cli_case("check-freeness-bad-lambda-file",
             ["check-freeness", "@p", "--lambda", "@l"],
             {"@p": SEGMENT, "@l": {"rows": 2, "cols": 2, "entries": [[1, 1]]}},
             code="MalformedDocument", location="@l",
             message="lambda: declared 2x2, entries do not have that shape"),
    # an empty path names no file, as for check-freeness: not a skipped check
    cli_case("certify-empty-lambda-path", ["certify", "@p", "--lambda", ""],
             {"@p": CUBE_3}, code="IOError",
             message="[Errno 2] No such file or directory: ''", check=_no_output),
    cli_case("certify-empty-statement-path",
             ["certify", "@p", "--lambda", "@l", "--statement", ""],
             {"@p": CUBE_3, "@l": PAIRED_IDENTITY}, code="IOError",
             message="[Errno 2] No such file or directory: ''"),
]


@pytest.mark.parametrize(
    "argv, files, exit_code, code, message, location, stdin, check", CLI_CASES
)
def test_cli_outcomes(capsys, tmp_path, monkeypatch, argv, files, exit_code,
                      code, message, location, stdin, check):
    paths = {a: str(tmp_path / f"{a[1:]}.json") for a in argv if a.startswith("@")}
    for name, doc in files.items():
        write_json(tmp_path / f"{name[1:]}.json", doc)
    if stdin is not None:
        set_stdin(monkeypatch, stdin.encode("utf-8"))
    result, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert result == exit_code
    if code is None:
        assert err == ""
    else:
        (line,) = err.splitlines()
        diagnostic = json.loads(line)
        assert diagnostic["code"] == code
        texts = message if isinstance(message, tuple) else (message,)
        assert diagnostic["message"] in [t.format_map(paths) for t in texts]
        if location is not None:
            assert diagnostic["location"] == paths[location]
    if check is not None:
        check(out, paths)


def set_stdin(monkeypatch, data, encoding="utf-8"):
    """Feed ``data`` (bytes) as stdin, behind a text layer of ``encoding``
    as the locale would set it."""
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding=encoding)
    )


#: A segment whose facet names are not ASCII.
ACCENTED_SEGMENT = dict(SEGMENT, facets=["\u00e9", "\u00fc"])
ACCENTED_BYTES = json.dumps(ACCENTED_SEGMENT, ensure_ascii=False).encode("utf-8")


def test_stdin_is_read_as_utf8_whatever_its_text_encoding(
        capsys, tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    path.write_bytes(ACCENTED_BYTES)
    code, from_path, _ = run(capsys, ["certify", str(path)])
    assert code == 0
    set_stdin(monkeypatch, ACCENTED_BYTES, "latin-1")
    code, from_stdin, _ = run(capsys, ["certify", "-"])
    assert code == 0
    assert from_stdin == from_path
    assert json.loads(from_stdin)["polytope"]["facets"] == ["\u00e9", "\u00fc"]


def test_stdin_that_is_not_utf8_is_malformed(capsys, monkeypatch):
    latin_1 = json.dumps(ACCENTED_SEGMENT, ensure_ascii=False).encode("latin-1")
    set_stdin(monkeypatch, latin_1, "latin-1")
    code, out, err = run(capsys, ["certify", "-"])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "MalformedDocument"


def test_a_file_and_stdin_give_one_decode_error_for_crlf_bytes(
        capsys, tmp_path, monkeypatch):
    # both are read as bytes: no newline translation moves the offsets
    data = b'{"dim": 1,\r\n "facets": ["a", "b"],\r\n}\r\n'
    path = tmp_path / "p.json"
    path.write_bytes(data)
    messages = []
    for source in (str(path), "-"):
        set_stdin(monkeypatch, data)
        code, out, err = run(capsys, ["build-dual", source])
        assert code == 2 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["code"] == "MalformedDocument"
        messages.append(diagnostic["message"].removeprefix(f"{source}: "))
    assert messages[0] == messages[1]
    assert messages[0].endswith("line 3 column 1 (char 36)")  # CRs counted


def test_a_text_stdin_without_bytes_reads_as_the_file(
        capsys, tmp_path, monkeypatch):
    # an in-process caller may install a text stream with no ``buffer``
    path = tmp_path / "p.json"
    path.write_bytes(ACCENTED_BYTES)
    code, from_path, _ = run(capsys, ["build-dual", str(path)])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(ACCENTED_BYTES.decode("utf-8")))
    assert run(capsys, ["build-dual", "-"]) == (0, from_path, "")


def _verify_argv(tmp_path):
    return ["verify", write_json(tmp_path / "c.json", TRIANGLE_CERT)]


@pytest.mark.parametrize("old", [
    lambda expected: b"x" * 300_000, lambda expected: b"{}\n",
    lambda expected: expected,
], ids=["longer", "shorter", "same"])
@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["examples"], _verify_argv,
], ids=["examples", "verify"])
def test_output_overwrites_an_old_file(capsys, tmp_path, argv, old):
    argv = argv(tmp_path)
    code, expected, _ = run(capsys, argv)
    assert code == 0
    out = tmp_path / "out.json"
    out.write_bytes(old(expected.encode("utf-8")))
    code, printed, _ = run(capsys, [*argv, "--output", str(out)])
    assert code == 0 and printed == ""
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null(capsys):
    assert run(capsys, ["examples", "--output", "/dev/null"]) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="FIFOs are POSIX only")
def test_output_to_fifo(capsys, tmp_path):
    code, expected, _ = run(capsys, ["examples"])
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    assert run(capsys, ["examples", "--output", str(fifo)]) == (0, "", "")
    reader.join(timeout=60)
    assert received == [expected.encode("utf-8")]


@pytest.mark.parametrize("where, message", [
    (lambda tmp_path: tmp_path, "[Errno 21] Is a directory: '{}'"),
    (lambda tmp_path: tmp_path / "missing" / "out.json",
     "[Errno 2] No such file or directory: '{}'"),
], ids=["directory", "missing-directory"])
def test_unwritable_output_is_an_io_error(capsys, tmp_path, where, message):
    path = str(where(tmp_path))
    code, out, err = run(capsys, ["examples", "--output", path])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "code": "IOError", "message": message.format(path), "location": path,
    }


def test_statement_over_the_certificate_keeps_only_the_statement(
        capsys, tmp_path):
    ppath = write_json(tmp_path / "p.json", CUBE_3)
    lpath = write_json(tmp_path / "l.json", PAIRED_IDENTITY)
    apart = tmp_path / "statement.json"
    code, cert, _ = run(capsys, [
        "certify", ppath, "--lambda", lpath, "--statement", str(apart),
    ])
    assert code == 0
    statement = apart.read_bytes()
    assert len(cert.encode("utf-8")) > len(statement)  # so it must truncate
    both = str(tmp_path / "both.json")
    code, out, _ = run(capsys, [
        "certify", ppath, "--lambda", lpath, "--output", both,
        "--statement", both,
    ])
    assert code == 0 and out == ""
    assert pathlib.Path(both).read_bytes() == statement


def test_outputs_are_rewritten_without_o_trunc(capsys, tmp_path, monkeypatch):
    # opening with O_TRUNC costs more than the write itself when a file is
    # overwritten; a plain open(path, "w") would also skip this os.open
    out = tmp_path / "out.json"
    out.write_text("old")
    flags = []
    real_open = os.open

    def recording_open(path, flag, *rest, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *rest, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert run(capsys, ["examples", "--output", str(out)]) == (0, "", "")
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def run_module(argv, hash_seed="0", timeout=None):
    """``python -m flipcert`` in a fresh interpreter, by ``run_python``."""
    return run_python(["-m", "flipcert", *argv], hash_seed, timeout)


def test_dimension_30_certificate_verifies_and_applies(tmp_path, monkeypatch):
    # the checker counts no faces, so a one-move certificate costs what its
    # move costs: the dual of simplex-29 x segment holds 3 * 2**30 faces,
    # which a count would neither finish nor fit in memory, so it refuses
    def refuse(k):
        raise AssertionError("faces counted at dimension 30")

    count_calls(monkeypatch, "f_vector", refuse)
    dual, result = simplex_segment_reduction(30)
    cert = certificate_to_doc(build_ledger(dual, result))
    cpath = write_json(tmp_path / "c.json", cert)
    kpath = write_json(tmp_path / "k.json", complex_to_doc(dual.complex))
    mpath = write_json(
        tmp_path / "m.json", move_sequence_to_doc(dual.complex, result.moves))
    proc = run_module(["verify", cpath], timeout=10)
    assert proc.returncode == 0, proc.stderr
    cert["steps"][-1]["post_f_vector"][-1] += 1
    bad = write_json(tmp_path / "bad.json", cert)
    proc = run_module(["verify", bad], timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["location"] == "construction-replay"
    proc = run_module(["apply", kpath, "--moves", mpath], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == complex_to_doc(result.final)


def test_dimension_30_certify_and_reduce_end_with_the_sweep(tmp_path):
    # the sweep from the input removes one vertex of the dual of simplex-29
    # x segment and ends at a simplex boundary, so neither command counts
    # its 3 * 2**30 faces; a count would not finish in time or fit in 1 GiB
    dual, result = simplex_segment_reduction(30)
    ppath = write_json(tmp_path / "p.json", polytope_to_doc(dual.polytope))
    kpath = write_json(tmp_path / "k.json", complex_to_doc(dual.complex))
    cpath = str(tmp_path / "c.json")
    proc = run_module(["certify", ppath, "--output", cpath], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(pathlib.Path(cpath).read_text()) == certificate_to_doc(
        build_ledger(dual, result))
    proc = run_module(["verify", cpath], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["established"] is True
    proc = run_module(["reduce", kpath], timeout=10)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["succeeded"] is True and doc["steps_examined"] == 1
    assert doc["moves"] == move_sequence_to_doc(dual.complex, result.moves)
    assert doc["final"] == complex_to_doc(result.final)


def test_unknown_flag_is_rejected(capsys, tmp_path):
    # and the shared parser still serves the next call, byte for byte
    ppath = write_json(tmp_path / "p.json", CUBE_3)
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", ppath, "--output", cert_path]) == 0
    before = run(capsys, ["verify", cert_path])
    assert before[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["reduce", "--unknown-flag", "1"])
    assert info.value.code == 2
    capsys.readouterr()  # argparse's usage message
    assert run(capsys, ["verify", cert_path]) == before


@pytest.mark.parametrize("command", ["reduce", "certify"])
def test_search_flags_default_to_reduction_options(command):
    args = build_parser().parse_args([command])
    assert _options_from_args(args) == fc.ReductionOptions()


def test_parser_is_shared_and_keeps_no_flags(capsys, tmp_path):
    assert build_parser() is build_parser()
    ppath = write_json(tmp_path / "p.json", CUBE_3)
    flagged = run(capsys, [
        "certify", ppath, "--seed", "5", "--mode", "free", "--restarts", "2",
    ])
    args = build_parser().parse_args(["certify", ppath])
    assert _options_from_args(args) == fc.ReductionOptions()
    code, out, err = run(capsys, ["certify", ppath])
    assert flagged[0] == code == 0 and flagged[1] != out
    proc = run_module(["certify", ppath])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_module_entry_point(capsys, tmp_path):
    proc = run_module(["examples"])
    assert proc.returncode == 0
    assert proc.stdout == run(capsys, ["examples"])[1]
    assert set(json.loads(proc.stdout)) == set(fc.corpus())

    ppath = write_json(tmp_path / "p.json", CUBE_3)
    code, out, _ = run(capsys, ["certify", ppath])
    assert code == 0
    cert_doc = json.loads(out)
    assert run_module(["verify", write_json(tmp_path / "good.json", cert_doc)]
                      ).returncode == 0
    cert_doc["steps"][0]["codimension"] += 1
    proc = run_module(["verify", write_json(tmp_path / "bad.json", cert_doc)])
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "VerificationRefuted"


def test_moves_flags_non_pseudomanifold_input(capsys, tmp_path):
    broken = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    kpath = write_json(tmp_path / "k.json", complex_to_doc(broken))
    code, out, err = run(capsys, ["moves", kpath, "--types", "0"])
    assert code == 0  # mechanically still fine
    assert len(json.loads(out)["moves"]) == 3
    assert json.loads(err)["code"] == "NotPseudomanifold"


def test_certify_reports_exhaustion_honestly(capsys, tmp_path):
    ppath = write_json(
        tmp_path / "cube.json", polytope_to_doc(fc.named_polytope("cube-3"))
    )
    code, out, err = run(capsys, [
        "certify", ppath, "--max-steps", "0", "--restarts", "1",
    ])
    assert code == 1
    assert out == ""  # no certificate is claimed
    assert json.loads(err)["code"] == "SearchExhausted"


def test_reduce_reports_exhaustion_after_its_result(capsys, tmp_path):
    dual = fc.dual_complex(fc.named_polytope("cube-4")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(dual))
    code, out, err = run(capsys, [
        "reduce", kpath, "--max-steps", "0", "--restarts", "1",
    ])
    assert code == 1
    doc = json.loads(out)  # the best state found is still reported
    assert doc["succeeded"] is False
    assert doc["steps_examined"] == len(doc["moves"]["moves"])
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert (diagnostic["code"], diagnostic["location"]) == ("SearchExhausted", kpath)
    assert diagnostic["message"] == (
        f"no reduction found after {doc['steps_examined']} steps"
    )


def test_corpus_round_trips_through_cli(capsys, tmp_path):
    code, out, _ = run(capsys, ["examples"])
    corpus_doc = json.loads(out)
    for name, pdoc in corpus_doc.items():
        ppath = write_json(tmp_path / f"{name}.json", pdoc)
        code, out, _ = run(capsys, ["build-dual", ppath])
        assert code == 0, name
        dual_path = write_json(tmp_path / f"{name}-dual.json", json.loads(out))

        result_path = tmp_path / f"{name}-result.json"
        code, _, _ = run(capsys, ["reduce", str(dual_path),
                                  "--output", str(result_path)])
        assert code == 0, name
        result_doc = json.loads(result_path.read_text())

        code, out, _ = run(capsys, ["apply", str(dual_path),
                                    "--moves", str(result_path)])
        assert code == 0, name
        assert json.loads(out) == result_doc["final"], name

        cert_path = tmp_path / f"{name}-cert.json"
        code, _, _ = run(capsys, ["certify", ppath, "--output", str(cert_path)])
        assert code == 0, name
        code, out, _ = run(capsys, ["verify", str(cert_path)])
        assert code == 0, name
        assert json.loads(out)["established"], name


def test_apply_accepts_reduce_output(capsys, tmp_path):
    octa = fc.dual_complex(fc.named_polytope("cube-3")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(octa))
    rpath = tmp_path / "result.json"
    code, _, _ = run(capsys, ["reduce", kpath, "--output", str(rpath)])
    assert code == 0
    code, out, _ = run(capsys, ["apply", kpath, "--moves", str(rpath)])
    assert code == 0
    final = json.loads(out)
    assert json.loads(rpath.read_text())["final"] == final


def test_outputs_identical_across_processes(tmp_path):
    # separate interpreters get different hash seeds; normative orderings
    # must make the bytes identical anyway
    octa = fc.dual_complex(fc.named_polytope("cube-3")).complex
    kpath = write_json(tmp_path / "k.json", complex_to_doc(octa))
    outputs = []
    for seed_env in ("1", "2"):
        proc = run_module(["reduce", kpath, "--seed", "7"], seed_env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def corrupted_sequences(sequence):
    """Each move of a move-sequence document broken one way at a time:
    sigma shifted, tau grown, type bumped, move deleted, sigma/tau swapped."""
    edits = {
        "sigma shifted": lambda m: [{**m, "sigma": [v + 1 for v in m["sigma"]]}],
        "tau grown": lambda m: [{**m, "tau": m["tau"] + [max(m["tau"]) + 1]}],
        "type bumped": lambda m: [{**m, "type": m["type"] + 1}],
        "deleted": lambda m: [],
        "swapped": lambda m: [{**m, "sigma": m["tau"], "tau": m["sigma"]}],
    }
    moves = sequence["moves"]
    for i, move in enumerate(moves):
        for label, edit in edits.items():
            broken = moves[:i] + edit(move) + moves[i + 1:]
            yield f"move {i} {label}", {**sequence, "moves": broken}


# SHA-256 of the in-process transcript below: a change that keeps the
# command line's behaviour keeps every byte of it, and one meant to alter it
# pins the new value and says why
TRANSCRIPT_DIGEST = (
    "0f97977068ecc77f149e866e898a57693b6d02f604d1625265696a966effdf9a"
)


def test_cli_transcript_is_pinned(capsys, tmp_path, monkeypatch):
    # build-dual, moves, reduce in both modes, certify, verify and apply on
    # the corpus, then verify on every certificate mutation and apply on
    # every corrupted move: labels, exit codes, stdout and stderr
    monkeypatch.chdir(tmp_path)
    transcript = hashlib.sha256()
    codes = []

    def call(label, argv):
        code, out, err = run(capsys, argv)
        codes.append(code)
        record = json.dumps([label, code, out, err])
        transcript.update(record.encode() + b"\n")
        return out

    def dump(path, doc):
        pathlib.Path(path).write_text(json.dumps(doc))

    for name, polytope in sorted(fc.corpus().items()):
        dump("p.json", polytope_to_doc(polytope))
        dump("k.json", json.loads(call(f"{name} build-dual",
                                       ["build-dual", "p.json"])))
        call(f"{name} moves", ["moves", "k.json"])
        for mode in ("strict", "free"):
            result = json.loads(call(f"{name} reduce {mode}",
                                     ["reduce", "k.json", "--mode", mode]))
            dump("m.json", result["moves"])
            call(f"{name} apply {mode}", ["apply", "k.json", "--moves", "m.json"])
            for label, sequence in corrupted_sequences(result["moves"]):
                dump("m.json", sequence)
                call(f"{name} apply {mode} {label}",
                     ["apply", "k.json", "--moves", "m.json"])
        cert = json.loads(call(f"{name} certify", ["certify", "p.json"]))
        dump("c.json", cert)
        call(f"{name} verify", ["verify", "c.json"])
        for label, mutate in certificate_mutation_sites(cert):
            dump("c.json", mutate(cert))
            call(f"{name} verify {label}", ["verify", "c.json"])
    assert {code: codes.count(code) for code in (0, 1, 2)} == {
        0: 89, 1: 1041, 2: 181,
    }
    assert transcript.hexdigest() == TRANSCRIPT_DIGEST
