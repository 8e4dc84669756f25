#!/usr/bin/env python3
"""Certify/verify benchmark for flipcert.

    python3 bench/run.py --workload {anneal,truncate,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One operation is one in-process
``flipcert.cli.main([...])`` call on files in a scratch directory under
``bench/out``, which is exactly what a user runs and supplies the exit code.
The workload's fixed batch is made from ``--seed``.  With ``--trace 0`` whole
passes over the batch repeat while another fits in ``--seconds``, set-up
(input generation, plus the certificates ``verify`` reads) is repeated
between passes, and the end-to-end metrics are printed.  With ``--trace 1`` a
fixed subset of the batch runs once untraced and once under the span tracer
and the per-layer metrics are printed.  After timing, every exit code is
checked, every emitted certificate must verify, and on the default seed every
certify trajectory must match ``bench/reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and environment.  ``--write-reference`` regenerates the
reference file from the default seed instead of measuring.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5


def import_flipcert():
    """Import flipcert from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flipcert
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import flipcert from {src}: {exc}")
    if Path(flipcert.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: flipcert resolved outside {src}")


import_flipcert()

from flipcert import cli, serialize  # noqa: E402
from flipcert.polytopes import cube_polytope, dual_complex  # noqa: E402
from flipcert.reduction import ReductionOptions, reduce_to_simplex  # noqa: E402
from flipcert.surgery import (  # noqa: E402
    build_ledger,
    certificate_from_doc,
    certificate_to_doc,
    verify_certificate,
)

import tracer  # noqa: E402
import workloads as gen  # noqa: E402


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` names input and output files by their names
    in the batch directory; ``search_seed`` is set for ``certify`` calls."""

    label: str
    argv: tuple
    expect: int
    search_seed: int = None


@dataclass
class Setup:
    """A generated batch: its ops and the text of every input file.  The
    files are written to ``directory`` after set-up is timed, so that the
    host's file-system latency stays out of ``setup_s``."""

    ops: list
    files: dict
    directory: Path = None

    @contextlib.contextmanager
    def written(self, prefix):
        """Write the files to a fresh directory, removed on exit."""
        self.directory = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
        try:
            for name, text in self.files.items():
                (self.directory / name).write_text(text, encoding="utf-8")
            yield
        finally:
            shutil.rmtree(self.directory)

    def argv(self, op):
        return [str(self.directory / a) if a.endswith(".json") else a
                for a in op.argv]


def _add_file(files, name, doc):
    files[name] = serialize.dump(doc)
    return name


def _certify_op(files, label, polytope, rng, pair=None):
    search_seed = rng.randrange(2 ** 31)
    name = label.replace("/", "-")
    argv = ["certify", _add_file(files, f"{name}.in.json",
                                 serialize.polytope_to_doc(polytope))]
    if pair is not None:
        argv += ["--lambda", _add_file(files, f"{name}.lambda.json",
                                       serialize.lambda_to_doc(pair))]
    argv += ["--output", f"{name}.out.json", "--seed", str(search_seed)]
    return Op(label, tuple(argv), 0, search_seed)


# -- workloads ---------------------------------------------------------------
#
# anneal: certify on high-dimensional duals with few vertices, where the
#   search anneals: relabelled cube-4 plus one fifth relabelled
#   prism x triangle.  Exercises enumerate_moves over all types, link and
#   the f-vector cost.
# truncate: certify --lambda on cube-3 truncated 20..60 times (evenly
#   spread): low-dimensional duals with many vertices that greedy vertex
#   removals reduce.  The only workload that runs the quasitoric layer.
# verify: verify on certificates built in set-up from both families; a few
#   are refuted at their last step (exit 1) and a few are malformed at their
#   last step (exit 2).  Never enumerates moves: the bypass workload for
#   search optimisations and the guard on the validating path.  Most are
#   truncations, whose cost is set by the evenly spread cut count, so that
#   p50 and p90 fall inside that group rather than on a group boundary.

ANNEAL_CUBE4 = 180
ANNEAL_LARGE = 45
TRUNCATE_ITEMS = 110
TRUNCATE_CUTS = (20, 60)
VERIFY_BASE_CUBE4 = 9
VERIFY_BASE_TRUNCATED = 21
VERIFY_COPIES = 4
VERIFY_REFUTED = 12
VERIFY_MALFORMED = 6


def _spread_cuts(count):
    """``count`` cut numbers spread evenly over TRUNCATE_CUTS."""
    lo, hi = TRUNCATE_CUTS
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def build_anneal(rng, files):
    cube4 = cube_polytope(4)
    large = gen.prism_triangle()
    ops = []
    for family, base, count in (("cube-4", cube4, ANNEAL_CUBE4),
                                ("prism-triangle", large, ANNEAL_LARGE)):
        for i in range(count):
            p = gen.relabel(base, rng)
            gen.check_polytope(p)
            ops.append(_certify_op(files, f"{family}/{i:03d}", p, rng))
    return ops


def build_truncate(rng, files):
    ops = []
    for i, cuts in enumerate(_spread_cuts(TRUNCATE_ITEMS)):
        pair = gen.truncated_cube(rng, cuts)
        gen.check_pair(pair)
        ops.append(_certify_op(files, f"truncated-{cuts}/{i:03d}",
                               pair.polytope, rng, pair))
    return ops


def certify_in_library(polytope, search_seed):
    """What ``certify --seed`` computes, through the library: the reduction
    result and the certificate document."""
    dual = dual_complex(polytope)
    result = reduce_to_simplex(dual.complex, ReductionOptions(rng_seed=search_seed))
    return result, certificate_to_doc(build_ledger(dual, result))


def build_verify(rng, files):
    """Certificates searched for once per base polytope, then relabelled
    into VERIFY_COPIES distinct files each, so set-up stays short."""
    polytopes = []
    for i in range(VERIFY_BASE_CUBE4):
        p = gen.relabel(cube_polytope(4), rng)
        gen.check_polytope(p)
        polytopes.append((f"cube-4/{i:03d}", p))
    for i, cuts in enumerate(_spread_cuts(VERIFY_BASE_TRUNCATED)):
        pair = gen.truncated_cube(rng, cuts)
        gen.check_pair(pair)
        polytopes.append((f"truncated-{cuts}/{i:03d}", pair.polytope))
    docs = []
    for label, p in polytopes:
        _, doc = certify_in_library(p, rng.randrange(2 ** 31))
        docs += [(f"{label}/{copy}", 0, gen.relabel_certificate(doc, rng))
                 for copy in range(VERIFY_COPIES)]
    picked = rng.sample(range(len(docs)), VERIFY_REFUTED + VERIFY_MALFORMED)
    for n, index in enumerate(picked):
        label, _, doc = docs[index]
        doc = json.loads(json.dumps(doc))
        if n < VERIFY_REFUTED:
            doc["steps"][-1]["post_f_vector"][0] += 1
            docs.append((label + "/refuted", 1, doc))
        else:
            del doc["steps"][-1]["codimension"]
            docs.append((label + "/malformed", 2, doc))
    ops = []
    for label, expect, doc in docs:
        name = label.replace("/", "-")
        argv = ("verify", _add_file(files, f"{name}.cert.json", doc),
                "--output", f"{name}.out.json")
        ops.append(Op(label, argv, expect))
    return ops


@dataclass(frozen=True)
class Workload:
    build: object
    traced_ops: int  # size of the subset the traced run measures


WORKLOADS = {
    "anneal": Workload(build_anneal, 60),
    "truncate": Workload(build_truncate, 40),
    "verify": Workload(build_verify, 1000),
}


def setup(workload, seed):
    """Generate the batch in memory; ops come in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    files = {}
    ops = WORKLOADS[workload].build(rng, files)
    rng.shuffle(ops)
    return Setup(ops, files)


# -- measuring ---------------------------------------------------------------

def run_pass(s, ops, trace=None):
    """Run each op once; returns (per-op seconds, exit codes, wall seconds).
    Diagnostics on stderr are expected for refuted and malformed inputs and
    are discarded."""
    argvs = [s.argv(op) for op in ops]
    times, codes = [], []
    clock = time.perf_counter
    with contextlib.redirect_stderr(io.StringIO()):
        started = clock()
        for index, argv in enumerate(argvs):
            if trace is not None:
                trace.op = index
            t0 = clock()
            code = cli.main(argv)
            times.append(clock() - t0)
            codes.append(code)
        wall = clock() - started
    return times, codes, wall


def trajectory(s, op):
    """(moves, steps_examined, certificate digest) recomputed through the
    library for a certify op."""
    polytope = serialize.polytope_from_doc(json.loads(s.files[op.argv[1]]))
    result, doc = certify_in_library(polytope, op.search_seed)
    return [len(result.moves), result.steps_examined, serialize.digest(doc)]


def failed_ops(s, ops, codes_per_pass, workload, seed):
    """Labels of ops that failed a correctness check (checked after timing).

    Every exit code must match; every emitted certificate must verify; on
    the default seed each certify op must reproduce its stored trajectory.
    """
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    failed = set()
    for index, op in enumerate(ops):
        if any(codes[index] != op.expect for codes in codes_per_pass):
            failed.add(op.label)
            continue
        if op.argv[0] != "certify":
            continue
        out = s.directory / op.argv[op.argv.index("--output") + 1]
        doc = json.loads(out.read_text(encoding="utf-8"))
        if not verify_certificate(certificate_from_doc(doc)).established:
            failed.add(op.label)
        elif reference is not None:
            expected = reference.get(op.label)
            got = trajectory(s, op)
            if got != expected or got[2] != serialize.digest(doc):
                failed.add(op.label)
    return failed


def count_failed(ops, failed, passes):
    return sum(passes for op in ops if op.label in failed)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds):
    """Untraced run: passes over the batch while another fits in
    ``seconds``.  Set-up is repeated SETUP_REPEATS times, spread across the
    window between passes, and each repeat must rebuild the same batch."""
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        batch = setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
        return batch

    s = timed_setup()

    def set_up_again():
        again = timed_setup()
        if (again.ops, again.files) != (s.ops, s.files):
            raise SystemExit(f"bench: set-up of {workload} is not deterministic")

    times_per_pass, codes_per_pass, wall = [], [], 0.0
    with s.written(f"{workload}-{seed}-"):
        while not codes_per_pass or wall + wall / len(codes_per_pass) <= seconds:
            times, codes, w = run_pass(s, s.ops)
            times_per_pass.append(times)
            codes_per_pass.append(codes)
            wall += w
            due = len(setup_times) < SETUP_REPEATS
            if due and wall >= seconds * len(setup_times) / SETUP_REPEATS:
                set_up_again()
        while len(setup_times) < SETUP_REPEATS:
            set_up_again()
        failed = failed_ops(s, s.ops, codes_per_pass, workload, seed)
    passes = len(codes_per_pass)
    # Each op's time is its mean over the passes, which spread it across the
    # window: the host's speed drifts by tens of percent within seconds.
    per_op = [statistics.fmean(t) for t in zip(*times_per_pass)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(s.ops) * passes / wall,
        "op_s.p50": statistics.median(per_op),
        "op_s.p90": statistics.quantiles(per_op, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": passes, "batch": len(s.ops),
            "measured_s": wall, "setup_runs_s": setup_times}
    return len(s.ops) * passes, count_failed(s.ops, failed, passes), metrics, info


def layer_metrics(trace, untraced_wall, traced_wall):
    calls, self_s = trace.totals()
    counts = trace.counts
    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for key in ("moves.enumerate_moves.returned", "reduction.steps_examined",
                "reduction.moves", "surgery.verify_certificate.refuted",
                "serialize.dump.bytes"):
        metrics[key] = counts[key]
    attempts = calls["moves.is_applicable"]
    metrics["moves.is_applicable.hit_ratio"] = (
        counts["moves.is_applicable.hits"] / attempts if attempts else 0.0)
    steps = counts["reduction.steps_examined"]
    metrics["reduction.useful_ratio"] = (
        counts["reduction.moves"] / steps if steps else 0.0)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.self_coverage"] = sum(self_s.values()) / traced_wall
    return metrics


def measure_traced(workload, seed):
    t0 = time.perf_counter()
    s = setup(workload, seed)
    setup_s = time.perf_counter() - t0
    ops = s.ops[:WORKLOADS[workload].traced_ops]
    trace = tracer.Tracer()
    with s.written(f"{workload}-{seed}-"):
        _, plain_codes, plain_wall = run_pass(s, ops)
        trace.install()
        try:
            _, traced_codes, traced_wall = run_pass(s, ops, trace)
        finally:
            trace.uninstall()
        failed = failed_ops(s, ops, [plain_codes, traced_codes], workload, seed)
    metrics = layer_metrics(trace, plain_wall, traced_wall)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    trace.write(spans)
    info = {"traced_ops": len(ops), "untraced_s": plain_wall,
            "traced_s": traced_wall, "spans": len(trace.starts),
            "spans_file": str(spans.relative_to(ROOT)), "setup_s": setup_s}
    return 2 * len(ops), count_failed(ops, failed, 2), metrics, info


# -- reporting ---------------------------------------------------------------

def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed, seconds, trace):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def write_reference():
    """Record every certify trajectory of the default seed."""
    reference = {}
    for workload in ("anneal", "truncate"):
        s = setup(workload, DEFAULT_SEED)
        reference[workload] = {op.label: trajectory(s, op) for op in s.ops}
    blocks = []
    for workload, entries in sorted(reference.items()):
        lines = ",\n".join(f"  {json.dumps(label)}: {json.dumps(value)}"
                           for label, value in sorted(entries.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    declared = declared_metrics(args.trace)
    if args.trace:
        attempted, failed, metrics, info = measure_traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, info = measure(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env.update(info)
    record = OUT / f"BENCH-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "result": result},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
