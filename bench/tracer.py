"""Span tracer for the benchmark's traced run.

The tracer wraps flipcert's public functions from outside the package: each
target is replaced, in every ``flipcert.*`` module namespace that holds it,
by a wrapper that records a span (name, start, end, parent, op id) and
optional counts.  ``Complex`` is a class compared with ``isinstance``, so its
``__init__`` is wrapped on the class instead of replacing the name.
Everything is kept in memory and written out after the run; ``uninstall``
puts every original object back.

The untraced run never constructs a tracer, so it pays nothing for it.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` (``module.cls.attr`` when
    ``cls`` is set).  ``classify(args)`` may refine the span name;
    ``observe(counts, args, result)`` adds counts after a successful call."""

    module: str
    attr: str
    span: str
    cls: Optional[str] = None
    classify: Optional[Callable] = None
    observe: Optional[Callable] = None
    kinds: tuple = ()  # every span name suffix ``classify`` can return

    def span_names(self):
        return [f"{self.span}.{kind}" for kind in self.kinds] or [self.span]


def _enumerate_kind(args):
    """Greedy vertex removal asks for the top type alone; annealing asks
    for every allowed type."""
    k, allowed = args[0], args[1]
    return "greedy" if set(allowed) == {k.dim} else "anneal"


def _count(key, value):
    def observe(counts, args, result):
        counts[key] += value(args, result)
    return observe


def _count_reduction(counts, args, result):
    counts["reduction.steps_examined"] += result.steps_examined
    counts["reduction.moves"] += len(result.moves)


TARGETS = (
    Target("flipcert.cli", "main", "cli.main"),
    Target("flipcert.moves", "enumerate_moves", "moves.enumerate_moves",
           classify=_enumerate_kind, kinds=("greedy", "anneal"),
           observe=_count("moves.enumerate_moves.returned",
                          lambda args, result: len(result))),
    Target("flipcert.moves", "is_applicable", "moves.is_applicable",
           observe=_count("moves.is_applicable.hits",
                          lambda args, result: result is not None)),
    Target("flipcert.moves", "apply_move", "moves.apply_move"),
    Target("flipcert.complexes", "__init__", "complexes.Complex", cls="Complex"),
    Target("flipcert.complexes", "link", "complexes.link"),
    Target("flipcert.complexes", "has_face", "complexes.has_face"),
    Target("flipcert.complexes", "f_vector", "complexes.f_vector"),
    Target("flipcert.complexes", "is_pseudomanifold", "complexes.is_pseudomanifold"),
    Target("flipcert.complexes", "euler_characteristic",
           "complexes.euler_characteristic"),
    Target("flipcert.reduction", "reduce_to_simplex", "reduction.reduce_to_simplex",
           observe=_count_reduction),
    Target("flipcert.reduction", "replay", "reduction.replay"),
    Target("flipcert.surgery", "build_ledger", "surgery.build_ledger"),
    Target("flipcert.surgery", "verify_certificate", "surgery.verify_certificate",
           observe=_count("surgery.verify_certificate.refuted",
                          lambda args, result: not result.established)),
    Target("flipcert.surgery", "psc_statement", "surgery.psc_statement"),
    Target("flipcert.surgery", "certificate_to_doc", "surgery.certificate_to_doc"),
    Target("flipcert.surgery", "certificate_from_doc", "surgery.certificate_from_doc"),
    Target("flipcert.polytopes", "dual_complex", "polytopes.dual_complex"),
    Target("flipcert.polytopes", "make_polytope", "polytopes.make_polytope"),
    Target("flipcert.quasitoric", "check_freeness", "quasitoric.check_freeness"),
    Target("flipcert.quasitoric", "det_int", "quasitoric.det_int"),
    Target("flipcert.serialize", "dump", "serialize.dump",
           observe=_count("serialize.dump.bytes",
                          lambda args, result: len(result.encode("utf-8")))),
    Target("flipcert.serialize", "digest", "serialize.digest"),
    Target("flipcert.serialize", "polytope_from_doc", "serialize.polytope_from_doc"),
)


def span_names(targets=TARGETS):
    return [name for target in targets for name in target.span_names()]


class Tracer:
    """Spans in parallel arrays, in the order they start; parent ``-1`` is
    the root.  ``op`` is the id stamped on spans opened while it is set."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts = Counter()
        self.op = -1
        self._stack = [-1]
        self._patches = []

    def begin(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, target):
        begin, end = self.begin, self.end
        counts = self.counts
        span, classify, observe = target.span, target.classify, target.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(f"{span}.{classify(args)}" if classify else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if observe:
                observe(counts, args, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target wherever a ``flipcert`` module holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "flipcert" or name.startswith("flipcert."))
        ]
        for target in targets:
            owner = sys.modules[target.module]
            if target.cls is not None:
                cls = getattr(owner, target.cls)
                original = cls.__dict__[target.attr]
                self._patch(cls, target.attr, original, self.wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapper = self.wrap(original, target)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        """Restore every patched name; raise if one was not restored."""
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        for owner, name, original in patches:
            current = vars(owner)[name]
            if current is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")

    def totals(self):
        """Per span name: (calls, total self seconds)."""
        calls = Counter()
        self_s = Counter()
        own_times = self_times(self.starts, self.ends, self.parents)
        for name_id, own in zip(self.name_ids, own_times):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def write(self, path):
        """Write spans as gzip'd tab-separated rows: index, name, start,
        end, parent, op (times in seconds from the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i, (n, s, e, p, o) in enumerate(zip(
                    self.name_ids, self.starts, self.ends,
                    self.parents, self.op_ids)):
                out.write(f"{i}\t{names[n]}\t{s - origin:.9f}\t"
                          f"{e - origin:.9f}\t{p}\t{o}\n")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of its interval that its child
    spans cover.

    Spans must be listed in the order they start, so a parent precedes its
    children and siblings come in start order; overlapping children are
    counted once and clipped to the parent's interval.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # how far each span's interval is covered so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]
