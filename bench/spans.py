"""Span tracing of invsys from outside the package, for the benchmark's traced runs.

``Tracer.install`` wraps the public functions and methods of every layer (the
modules of ``invsys``) and ``Tracer.remove`` puts the originals back.  A
module-level function is replaced under every name it is bound to, in every
``invsys`` module, because ``from .x import y`` binds a second name that a
wrapper placed only in the defining module would miss.  Methods are wrapped
on their class and on each subclass that overrides them.

Each wrapped call records one span: name, start, end and the index of the
enclosing span (-1 at the top).  Spans stay in memory in flat arrays until
``write`` dumps them.  A span's self time is its duration minus the durations
of its direct children; a layer's self time is the sum over its spans.  The
tracer also counts the distinct ``(element, i, j)`` arguments ``Planted.eval_entry``
sees within each top-level call, which is one CLI invocation; elements are told
apart by identity and kept alive until the call ends, so no id is reused.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

# layer -> (module, wrapped names).  "Class.method" wraps a method on Class
# and its subclasses; "name->span" files the call under another span name.
LAYERS = {
    "ring": ("ring", ("Ring.elem", "RingElem.__add__", "RingElem.__sub__",
                      "RingElem.__mul__", "RingElem.__neg__")),
    "tree": ("tree", ("Tree.check_node", "Tree.restrict", "Tree.pro_level_within",
                      "Tree.node_sort_key", "Tree.branch", "Tree.branch_node",
                      "Tree.branch_sort_key", "Tree.branch_from_node",
                      "Tree.separation_level", "Tree.presentation_level",
                      "Tree.from_json", "Tree.node_from_json")),
    "indexset": ("indexset", ("tailset", "tail", "below", "index_set", "ind_omega",
                              "TailSet.min_from", "TailSet.intersect", "TailSet.union",
                              "TailSet.issubset", "IndexSet.pro", "IndexSet.classify",
                              "IndexSet.square_restrict", "IndexSet.coherify",
                              "IndexSet.successor_pair", "IndexSet.issubset")),
    "freemod": ("freemod", ("module_element", "apply_hom", "ModuleElement.zero",
                            "ModuleElement.coefficient", "ModuleElement.__add__",
                            "ModuleElement.__neg__", "ModuleElement.__sub__",
                            "ModuleElement.restrict_to", "ModuleElement.support",
                            "ModuleElement.from_json")),
    "coherent": ("coherent", ("Planted.eval_entry", "Planted.entry_coefficient",
                              "Planted._merge", "Planted.__neg__", "Planted.from_json",
                              "Coboundary.y", "Coboundary.induced", "Coboundary.__add__",
                              "Coboundary.__neg__", "Coboundary.from_json",
                              "coboundary", "planted", "branch_generator",
                              "check_coherence", "check_eq_recurrences",
                              "restriction_stability", "normalize_cobounded")),
    "decomp": ("decomp", ("decompose", "equiv_decide", "quotient_card_report",
                          "refine_nonzero", "support_bound", "extract_branch",
                          "_verify_decomposition->verify", "witness_equivalence")),
    "oracle": ("oracle", ("truncate", "universe_for", "TruncatedSystem.vectorize",
                          "TruncatedSystem.primary_table", "TruncatedSystem.independent_table",
                          "TruncatedSystem.table_coherent", "TruncatedSystem.agreement",
                          "TruncatedSystem.solve_coboundary")),
    "sampling": ("sampling", ("random_planted", "random_coboundary", "sample_node",
                              "sample_branch", "sample_branches")),
    "cli": ("cli", ("main", "load_system->load", "load_element->load", "_run_check",
                    "_run_decompose", "_run_equiv", "_run_card", "_run_oracle_verify",
                    "_emit")),
    "system": ("system", ("System.from_json",)),
}

# The entry map whose distinct arguments are counted per CLI call.
EVAL_ENTRY = "coherent.eval_entry"


def _span_name(layer: str, target: str) -> str:
    if "->" in target:
        return f"{layer}.{target.split('->')[1]}"
    return f"{layer}.{target.rsplit('.', 1)[-1].strip('_')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.clear()

    # -- recording ------------------------------------------------------------

    def clear(self) -> None:
        """Drop every recorded span and distinct-entry count."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._entries: dict[int, tuple[object, set]] = {}
        self._distinct = 0

    def _close_entries(self) -> None:
        self._distinct += sum(len(pairs) for _, pairs in self._entries.values())
        self._entries.clear()

    @property
    def distinct_entries(self) -> int:
        """Distinct ``eval_entry`` arguments, summed over top-level calls."""
        self._close_entries()
        return self._distinct

    def _wrap(self, span: str, fn):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        ident = self._ids[span]
        entries = span == EVAL_ENTRY

        def traced(*args, **kwargs):
            index = len(self.start)
            parent = self._stack[-1]
            if parent < 0:  # a new top-level call, such as one CLI invocation
                self._close_entries()
            self.name.append(ident)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                if entries:
                    self._entries.setdefault(id(args[0]), (args[0], set()))[1].add(args[1:3])

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in ``LAYERS`` that exists; ``missing`` names the rest,
        so that a program which renames or deletes a function still traces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {}
        for name in ["invsys"] + [f"invsys.{mod}" for mod, _ in LAYERS.values()]:
            try:
                modules[name] = importlib.import_module(name)
            except ModuleNotFoundError:
                pass
        self.missing = []
        for layer, (mod, targets) in LAYERS.items():
            module = modules.get(f"invsys.{mod}")
            for target in targets:
                attr = target.split("->")[0]
                wrap = self._wrap_method if "." in attr else self._wrap_function
                if module is None or not wrap(modules.values(), module, attr,
                                              _span_name(layer, target)):
                    self.missing.append(f"invsys.{mod}.{attr}")

    def _wrap_function(self, modules, module, attr: str, span: str) -> bool:
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(span, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def _wrap_method(self, modules, module, attr: str, span: str) -> bool:
        cls_name, meth = attr.split(".")
        base = getattr(module, cls_name, None)
        found = False
        for cls in vars(module).values():
            if not (isinstance(cls, type) and isinstance(base, type) and issubclass(cls, base)
                    and meth in vars(cls)):
                continue
            original = vars(cls)[meth]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(span, original.__func__))
            else:
                wrapper = self._wrap(span, original)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrapper)
            found = True
        return found

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- analysis -------------------------------------------------------------

    def counts(self) -> Counter:
        """Calls per span name, over every span recorded since ``clear``."""
        return Counter({self.names[k]: n for k, n in Counter(self.name).items()})

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        out = dict.fromkeys(self.names, 0.0)
        for index, ident in enumerate(self.name):
            out[self.names[ident]] += self.end[index] - self.start[index] - child[index]
        return out

    def write(self, path) -> None:
        """Dump the spans: a JSON header line, then the name, parent, start and
        end arrays back to back in native byte order."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)
