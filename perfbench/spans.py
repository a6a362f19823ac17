"""Spans around the package's public functions, for the traced run.

Each traced function is replaced by a wrapper at every binding site: the
defining module and every ``alexquandle`` module that imported it by name.
A span records its name, start, end and the span that was open when it
began, as thread CPU times. Spans stay in memory until ``dump`` writes
them out and reduces them to self time (duration minus the time its child
spans cover, both converted to reference seconds by the run's RefClock),
call counts and per-function work counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import thread_time


def _count_len(key):
    def count(counts, result):
        counts[key] = counts.get(key, 0) + len(result)
    return count


def _count_found(key):
    def count(counts, result):
        counts[key] = counts.get(key, 0) + (result is not None)
    return count


def _count_cells(counts, result):
    counts["quandle.alexander_table.cells"] = (
        counts.get("quandle.alexander_table.cells", 0) + len(result.rows) ** 2
    )


# (module, function, counter of work derived from the result or None)
TRACED = (
    ("abelian", "enumerate_automorphisms", _count_len("abelian.automorphisms")),
    ("abelian", "conjugacy_classes", _count_len("abelian.conjugacy_classes.classes")),
    ("lambda_module", "lambda_iso", _count_found("lambda_module.lambda_iso.found")),
    ("lambda_module", "image_one_minus_t", None),
    ("lambda_module", "module_certificate", None),
    ("lambda_module", "named_candidates", None),
    ("lambda_module", "direct_sum", None),
    ("quandle", "alexander_table", _count_cells),
    ("quandle", "brute_iso", _count_found("quandle.brute_iso.found")),
    ("quandle", "construct_quandle_iso", None),
    ("quandle", "is_quandle_iso", None),
    ("quandle", "theorem1_iso", None),
    ("cli", "parse_spec", None),
    ("cli", "main", None),
    ("classify", "classify_order", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def _wrap(self, qualname, fn, count):
        nid = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        open_spans, counts = self.open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(thread_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = thread_time()
                open_spans.pop()
            if count is not None:
                count(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function at every binding site."""
        for mod_name, fn_name, count in TRACED:
            module = importlib.import_module(f"alexquandle.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for name, mod in list(sys.modules.items()):
                if name != "alexquandle" and not name.startswith("alexquandle."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        if self.missing:
            print(f"trace: not found, reported as 0: {self.missing}", file=sys.stderr)

    def summary(self, span) -> dict:
        """Self seconds and calls per traced function, plus work counters;
        span(a, b) converts two thread_time marks to seconds."""
        n = len(self.start)
        child = [0.0] * n
        dur = [span(self.start[i], self.end[i]) for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {f"{name}.self_s": 0.0 for name in self.names}
        out.update({f"{name}.calls": 0 for name in self.names})
        for i in range(n):
            name = self.names[self.name_of[i]]
            out[f"{name}.self_s"] += dur[i] - child[i]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        return out

    def dump(self, path: str, span) -> dict:
        """Write the spans (id, parent, name, start, end in thread CPU
        seconds) as TSV and return the summary."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
        return self.summary(span)


def merge(summaries) -> dict:
    """Sum several summaries key by key."""
    out: dict = {}
    for s in summaries:
        for key, value in s.items():
            out[key] = out.get(key, 0) + value
    return out

