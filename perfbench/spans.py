"""In-memory spans for the traced benchmark run, and the patch points that
put spans around the calls one conjgf module makes into another.

A span is [name, start_ns, end_ns, parent, label]: parent is the index of
the enclosing span (-1 at the top) and label names the group it worked on.
Spans stay in memory until the worker ends and writes them out.  A layer's
self time is its spans' durations minus what their child spans cover.

Nothing inside src/ is edited: a patch replaces a name in a conjgf module's
namespace by a wrapper that opens a span and calls the original, so only
calls that cross a module boundary are timed.  The untraced run installs no
patches and records nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import time
from contextlib import contextmanager, nullcontext

# (module, name looked up at call time, span name).  A name a later version
# of the package no longer has is skipped; the coverage figure shows the gap.
PATCH_POINTS = (
    ("conjgf.pcp", "certify", "groups.certify"),
    ("conjgf.groups", "certify", "groups.certify"),
    ("conjgf.families", "build_from_permutations", "groups.perm_build"),
    ("conjgf.families", "center_elements", "analysis.invariants"),
    ("conjgf.families", "derived_subgroup", "analysis.invariants"),
    ("conjgf.families", "nilpotency_class", "analysis.invariants"),
    ("conjgf.families", "has_abelian_maximal_subgroup", "analysis.invariants"),
    ("conjgf.genfun", "conjugacy_data", "analysis.classes"),
    ("conjgf.genfun", "b_of_t", "genfun.b"),
    ("conjgf.cli", "a_of_t", "genfun.a"),
    ("conjgf.cli", "b_of_t", "genfun.b"),
    ("conjgf.cli", "normalize", "ratfun.normalize"),
    ("conjgf.cli", "table_row", "closed_forms.table_row"),
)

# Names whose spans are the per-layer figures of a pass; the coverage figure
# is the share of the pass these spans' self times account for.
LAYER_SPANS = (
    "pcp.build", "groups.certify", "groups.perm_build",
    "analysis.invariants", "analysis.classes",
    "genfun.a", "genfun.b", "genfun.coefficients",
    "ratfun.normalize", "ratfun.partial_fractions",
    "closed_forms.table_row", "closed_forms.eval",
    "oracle.alpha_brute", "oracle.beta_brute",
    "isoclinism.search", "isoclinism.verify",
)


class NullRecorder:
    """Tracing off: spans cost one call and record nothing."""

    traced = False
    _null = nullcontext()

    def span(self, name: str, label: str = ""):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass


class Recorder:
    """Tracing on: keeps every span and counter in memory."""

    traced = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.presentations: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, label: str = ""):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, label]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_pcp_build(self, fn):
        """Span around a presentation build that also keeps the presentation,
        so the collect re-run can replay its generator products later."""

        @functools.wraps(fn)
        def traced(pres, *args, **kwargs):
            self.presentations.append(pres)
            with self.span("pcp.build", getattr(pres, "label", "")):
                return fn(pres, *args, **kwargs)

        return traced

    def install_patches(self) -> None:
        """Wrap the cross-module calls named in PATCH_POINTS, and the
        presentation builds made by `families`."""
        for module_name, attr, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self.wrap(original, span_name))
        families = importlib.import_module("conjgf.families")
        if hasattr(families, "build_from_pcp"):
            families.build_from_pcp = self.wrap_pcp_build(families.build_from_pcp)

    # -- reading the spans back --------------------------------------------

    def _roots(self) -> list[int]:
        roots = []
        for i, s in enumerate(self.spans):
            parent = s[3]
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def layer_times(self, phases: tuple[str, ...]) -> dict[str, dict]:
        """Per span name: summed self time, longest single duration, call
        count, over the spans whose top-level phase is one of `phases`."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        roots = self._roots()
        out: dict[str, dict] = {}
        for i, s in enumerate(spans):
            if spans[roots[i]][0] not in phases or roots[i] == i:
                continue
            dur = s[2] - s[1]
            slot = out.setdefault(s[0], {"self_s": 0.0, "max_s": 0.0, "calls": 0})
            slot["self_s"] += (dur - child[i]) / 1e9
            slot["max_s"] = max(slot["max_s"], dur / 1e9)
            slot["calls"] += 1
        return out

    def phase_seconds(self, phase: str) -> float:
        return sum((s[2] - s[1]) / 1e9 for s in self.spans if s[3] < 0 and s[0] == phase)

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {"meta": meta, "counts": self.counts,
               "fields": ["name", "start_ns", "end_ns", "parent", "label"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def environment() -> dict:
    """Versions and machine facts recorded beside every result."""
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": None,
        "cpu_model": None,
    }
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["mem_total_kb"] = int(line.split()[1])
                    break
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
