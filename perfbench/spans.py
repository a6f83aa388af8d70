"""Span recorder for the traced run.

Wraps public clotkit functions as they are bound in the modules that call
them, so no tracing code lives in the program.  Each call records a span
(name, start, end, parent); spans stay in memory until the run ends.
Counters are read off arguments and results at the same boundaries.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter


def _popcount(rel) -> int:
    return sum(row.bit_count() for row in rel.rows)


def _internal_pairs(args, out) -> int:
    return _popcount(args[0]) ** 2 if out.holds else 0


def _targets():
    """(module, attribute, span name, counter) for every wrapped binding; a
    counter is (key, function of the call's arguments and result)."""
    from clotkit import bicyclic, classify, cli, clots, monoid, search

    submonoids = ("monoid.submonoids", lambda args, out: len(out.masks))
    return [
        (monoid, "full_transformation_monoid", "monoid.build", None),
        (monoid, "monoid_from_transformations", "monoid.build", None),
        (monoid, "enumerate_submonoids", "monoid.enumerate", submonoids),
        (search, "full_transformation_monoid", "monoid.build", None),
        (search, "enumerate_submonoids", "monoid.enumerate", submonoids),
        (classify, "syntactic_reflexive_relation", "relations.reflexive",
         ("relations.related_pairs", lambda args, out: _popcount(out))),
        (classify, "is_internal", "relations.is_internal",
         ("relations.is_internal_pairs", _internal_pairs)),
        (clots, "internal_reflexive_closure", "relations.closure",
         ("relations.closure_pairs", lambda args, out: _popcount(out))),
        (clots, "syntactic_congruence", "relations.congruence", None),
        (clots, "syntactic_preorder", "relations.preorder", None),
        (classify, "is_clot", "clots.is_clot", None),
        (classify, "unit_transfer_condition", "clots.unit_transfer", None),
        (classify, "homogeneity", "clots.homogeneity", None),
        (classify, "is_positive_cone", "clots.positive_cone", None),
        (classify, "is_normal_submonoid", "clots.normal", None),
        (classify, "classify_pair", "classify.pair", None),
        (search, "classify_pair", "classify.pair", None),
        (classify, "check_consistency", "classify.consistency", None),
        (bicyclic, "residue_submonoid", "bicyclic.residue_validate", None),
        (bicyclic, "b_rm_related", "bicyclic.rm_related", None),
        (bicyclic, "b_internality_search", "bicyclic.internality", None),
        (bicyclic, "b_interleaved_insertion_bounded", "bicyclic.interleaved",
         None),
        (search, "build_corpus", "search.corpus_build",
         ("search.corpus_pairs", lambda args, out: len(out))),
        (cli, "open_question_report", "search.hunt",
         ("search.residue_submonoids", lambda args, out:
          out["bicyclic_candidates"]["submonoids_checked"])),
        (cli, "main", "cli.main", None),
    ]


class Recorder:
    """Installs the wrappers; `uninstall` puts the original bindings back."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # [name index, start, end, parent]
        self.raised = Counter()        # span name -> calls that raised
        self.counts = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> "Recorder":
        for module, attr, name, counter in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, counter):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [code, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                key, value = counter
                self.counts[key] += value(args, out)
            return out

        return traced

    def layer_metrics(self) -> dict:
        """Per-layer values: self times in seconds, counts, the p90 of
        classify_pair calls and the residue yield."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        self_time = Counter()
        calls = Counter()
        pair_ms = []
        for i, (code, start, end, _) in enumerate(self.spans):
            name = self.names[code]
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
            if name == "classify.pair":
                pair_ms.append((end - start) * 1000)
        validations = calls["bicyclic.residue_validate"]
        found = self.counts["search.residue_submonoids"]
        out = {
            "monoid.build_s": self_time["monoid.build"],
            "monoid.enumerate_s": self_time["monoid.enumerate"],
            "relations.reflexive_s": self_time["relations.reflexive"],
            "relations.is_internal_s": self_time["relations.is_internal"],
            "relations.closure_s": self_time["relations.closure"],
            "relations.congruence_s": self_time["relations.congruence"],
            "relations.preorder_s": self_time["relations.preorder"],
            "clots.is_clot_s": self_time["clots.is_clot"],
            "clots.unit_transfer_s": self_time["clots.unit_transfer"],
            "clots.homogeneity_s": self_time["clots.homogeneity"],
            "clots.positive_cone_s": self_time["clots.positive_cone"],
            "clots.normal_s": self_time["clots.normal"],
            "classify.pair_s": total["classify.pair"],
            "classify.pair_self_s": self_time["classify.pair"],
            # a p90 needs ten samples beyond it
            "classify.pair_p90_ms": (
                statistics.quantiles(pair_ms, n=10)[-1]
                if len(pair_ms) >= 100 else 0.0),
            "classify.consistency_s": self_time["classify.consistency"],
            "bicyclic.residue_validate_s":
                self_time["bicyclic.residue_validate"],
            "bicyclic.residue_validate_calls": validations,
            "bicyclic.residue_rejected":
                self.raised["bicyclic.residue_validate"],
            "bicyclic.rm_related_s": self_time["bicyclic.rm_related"],
            "bicyclic.rm_related_calls": calls["bicyclic.rm_related"],
            "bicyclic.internality_s": self_time["bicyclic.internality"],
            "bicyclic.interleaved_s": self_time["bicyclic.interleaved"],
            "search.hunt_self_s": self_time["search.hunt"],
            "search.corpus_build_s": self_time["search.corpus_build"],
            "search.residue_yield": (found / validations
                                     if found and validations else 0.0),
            "cli.self_s": self_time["cli.main"],
        }
        for key in ("monoid.submonoids", "relations.related_pairs",
                    "relations.is_internal_pairs", "relations.closure_pairs",
                    "search.corpus_pairs", "search.residue_submonoids"):
            out[key] = self.counts[key]
        return out

    def write(self, path) -> None:
        """Write every span once, with the name table, as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
