"""Spans around revnet's public functions, recorded from outside the package,
and the per-layer metrics derived from them.

``Tracer.install`` replaces each target in ``TARGETS`` by a timing wrapper,
both in its defining module and in every ``revnet`` module that imported the
same object (``from .x import f``), so calls through either name are seen.
A span is (name, start, end, parent, run); ``run`` names the CLI stage the
span belongs to.  Spans stay in memory until the child process writes them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute path) -> span name "<layer>.<function>"
TARGETS = (
    ("revnet.synth", "generate"),
    ("revnet.corpus", "write_events"),
    ("revnet.corpus", "parse_events"),
    ("revnet.corpus", "validate_events"),
    ("revnet.corpus", "Corpus.from_file"),
    ("revnet.corpus", "Corpus.author_profile"),
    ("revnet.corpus", "Corpus.reviewer_profile"),
    ("revnet.review_graph", "build_graph"),
    ("revnet.centrality", "compute_table"),
    ("revnet.centrality", "clustering"),
    ("revnet.centrality", "pagerank"),
    ("revnet.text_metrics", "sentiment_score"),
    ("revnet.text_metrics", "category_percentages"),
    ("revnet.features", "assemble_matrix"),
    ("revnet.features", "supporting_features"),
    ("revnet.features", "write_matrix_csv"),
    ("revnet.features", "read_matrix_csv"),
    ("revnet.svr", "cross_validate"),
    ("revnet.svr", "fit"),
    ("revnet.svr", "SvrModel.predict"),
    ("revnet.svr", "save_model"),
    ("revnet.svr", "load_model"),
    ("revnet.analysis", "run_all"),
    ("revnet.analysis", "lqi_contrast"),
    ("revnet.analysis", "irregular_cases"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run]
        self.counters: dict[str, float] = {}
        self.run = ""
        self._stack: list[int] = []
        self._graphs: set[int] = set()
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def _observe(self, name, args, kwargs, result):
        if name == "svr.fit":
            diag = result.diagnostics
            rows = len(diag.train_beta)
            self.add("svr.rows", rows)
            self.add("svr.support_vectors", len(result.dual_coefs))
            self.add("svr.smo_iters", diag.iterations)
            self.add("svr.nonconverged_fits", 0 if diag.converged else 1)
            self.maximum("svr.kkt_gap_max", float(diag.kkt_gap))
            self.add("svr.kernel_mb", rows * rows * 8 / 1e6)
        elif name == "centrality.compute_table":
            graph = args[0] if args else kwargs["graph"]
            self._graphs.add(hash((graph.nodes, graph.adj)))
            self.counters["centrality.distinct_graphs"] = len(self._graphs)
            self.add("centrality.pagerank_nonconverged",
                     0 if result.pagerank_converged else 1)
        elif name == "review_graph.build_graph":
            self.maximum("review_graph.nodes_max", result.n)
            self.maximum("review_graph.edges_max",
                         sum(len(a) for a in result.adj) // 2)
        elif name == "corpus.from_file":
            self.maximum("corpus.events", len(result.events))
        elif name == "features.assemble_matrix":
            self.add("features.rows", len(result.paper_ids))
        elif name == "synth.generate":
            self.add("synth.events", len(result))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, kwargs, result)
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every target; ``uninstall`` puts the originals back."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "revnet" or n.startswith("revnet.")) and m is not None]
        for mod_name, path in TARGETS:
            mod = sys.modules[mod_name]
            name = mod_name.split(".")[-1] + "." + path.split(".")[-1]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            orig = getattr(mod, path)
            new = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, new)
                        self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


# -- analysis of recorded spans ---------------------------------------------


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans, ancestor):
    """Per span: True when ``ancestor`` is the span itself or encloses it."""
    flags = []
    for s in spans:  # a parent is always recorded before its children
        flags.append(s[0] == ancestor or (s[3] is not None and flags[s[3]]))
    return flags


def self_shares(spans):
    """Share of all traced self time per span name, largest first."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t
    total = sum(by_name.values()) or 1.0
    return sorted(((n, t / total) for n, t in by_name.items()),
                  key=lambda kv: -kv[1])


# name -> unit; every traced result carries all of them (0 where a layer
# does no work on a workload).
LAYER_METRICS = {
    "svr.cross_validate_s": "s", "svr.fit_calls": "count", "svr.fit_s": "s",
    "svr.smo_iters": "count", "svr.us_per_iter": "us", "svr.sv_fraction": "ratio",
    "svr.nonconverged_fits": "count", "svr.kkt_gap_max": "gap",
    "svr.kernel_mb": "MB", "svr.predict_s": "s",
    "centrality.compute_table_calls": "count", "centrality.distinct_graphs": "count",
    "centrality.useful_ratio": "ratio", "centrality.compute_table_s": "s",
    "centrality.brandes_s": "s", "centrality.clustering_s": "s",
    "centrality.pagerank_s": "s", "centrality.pagerank_nonconverged": "count",
    "review_graph.build_graph_calls": "count", "review_graph.build_graph_s": "s",
    "review_graph.nodes_max": "count", "review_graph.edges_max": "count",
    "corpus.from_file_s": "s", "corpus.events": "count",
    "corpus.author_profile_calls": "count", "corpus.author_profile_s": "s",
    "corpus.reviewer_profile_calls": "count", "corpus.reviewer_profile_s": "s",
    "features.assemble_matrix_s": "s", "features.rows": "count",
    "features.supporting_features_calls": "count",
    "features.supporting_features_s": "s", "features.write_csv_s": "s",
    "features.read_csv_s": "s",
    "text_metrics.sentiment_calls": "count", "text_metrics.sentiment_s": "s",
    "text_metrics.category_calls": "count", "text_metrics.category_s": "s",
    "analysis.run_all_s": "s", "analysis.supporting_features_calls": "count",
    "analysis.supporting_features_s": "s", "analysis.compute_table_s": "s",
    "analysis.lqi_contrast_s": "s", "analysis.irregular_cases_s": "s",
    "synth.generate_s": "s", "synth.events": "count",
    "cli.self_s": "s",
    "share.svr_fit": "%", "share.centrality_compute_table": "%",
    "share.corpus_profiles": "%",
}


def layer_metrics(spans, counters):
    """Per-layer values (without units) from spans and counters."""
    own = self_times(spans)
    in_analysis = _under(spans, "analysis.run_all")
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, t, ana in zip(spans, own, in_analysis):
        # a layer function reached from analysis is booked to analysis
        name = ("analysis." + s[0] if ana and s[0] in
                ("features.supporting_features", "centrality.compute_table")
                else s[0])
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        self_s[name] = self_s.get(name, 0.0) + t

    def n(name):
        return calls.get(name, 0)

    def secs(name):
        return total.get(name, 0.0)

    def count(key):
        return counters.get(key, 0)

    ct_calls = n("centrality.compute_table") + n("analysis.centrality.compute_table")
    ct_own = self_s.get("centrality.compute_table", 0.0) + self_s.get(
        "analysis.centrality.compute_table", 0.0)
    shares = dict(self_shares(spans))
    out = {
        "svr.cross_validate_s": secs("svr.cross_validate"),
        "svr.fit_calls": n("svr.fit"),
        "svr.fit_s": secs("svr.fit"),
        "svr.smo_iters": count("svr.smo_iters"),
        "svr.us_per_iter": (1e6 * secs("svr.fit") / count("svr.smo_iters")
                            if count("svr.smo_iters") else 0.0),
        "svr.sv_fraction": (count("svr.support_vectors") / count("svr.rows")
                            if count("svr.rows") else 0.0),
        "svr.nonconverged_fits": count("svr.nonconverged_fits"),
        "svr.kkt_gap_max": count("svr.kkt_gap_max"),
        "svr.kernel_mb": count("svr.kernel_mb"),
        "svr.predict_s": secs("svr.predict"),
        "centrality.compute_table_calls": ct_calls,
        "centrality.distinct_graphs": count("centrality.distinct_graphs"),
        "centrality.useful_ratio": (count("centrality.distinct_graphs") / ct_calls
                                    if ct_calls else 0.0),
        "centrality.compute_table_s": (secs("centrality.compute_table")
                                       + secs("analysis.centrality.compute_table")),
        "centrality.brandes_s": ct_own,
        "centrality.clustering_s": secs("centrality.clustering"),
        "centrality.pagerank_s": secs("centrality.pagerank"),
        "centrality.pagerank_nonconverged": count("centrality.pagerank_nonconverged"),
        "review_graph.build_graph_calls": n("review_graph.build_graph"),
        "review_graph.build_graph_s": secs("review_graph.build_graph"),
        "review_graph.nodes_max": count("review_graph.nodes_max"),
        "review_graph.edges_max": count("review_graph.edges_max"),
        "corpus.from_file_s": secs("corpus.from_file"),
        "corpus.events": count("corpus.events"),
        "corpus.author_profile_calls": n("corpus.author_profile"),
        "corpus.author_profile_s": secs("corpus.author_profile"),
        "corpus.reviewer_profile_calls": n("corpus.reviewer_profile"),
        "corpus.reviewer_profile_s": secs("corpus.reviewer_profile"),
        "features.assemble_matrix_s": secs("features.assemble_matrix"),
        "features.rows": count("features.rows"),
        "features.supporting_features_calls": n("features.supporting_features"),
        "features.supporting_features_s": secs("features.supporting_features"),
        "features.write_csv_s": secs("features.write_matrix_csv"),
        "features.read_csv_s": secs("features.read_matrix_csv"),
        "text_metrics.sentiment_calls": n("text_metrics.sentiment_score"),
        "text_metrics.sentiment_s": secs("text_metrics.sentiment_score"),
        "text_metrics.category_calls": n("text_metrics.category_percentages"),
        "text_metrics.category_s": secs("text_metrics.category_percentages"),
        "analysis.run_all_s": secs("analysis.run_all"),
        "analysis.supporting_features_calls": n("analysis.features.supporting_features"),
        "analysis.supporting_features_s": secs("analysis.features.supporting_features"),
        "analysis.compute_table_s": secs("analysis.centrality.compute_table"),
        "analysis.lqi_contrast_s": secs("analysis.lqi_contrast"),
        "analysis.irregular_cases_s": secs("analysis.irregular_cases"),
        "synth.generate_s": secs("synth.generate"),
        "synth.events": count("synth.events"),
        "cli.self_s": sum(t for s, t in zip(spans, own) if s[0].startswith("cli.")),
        "share.svr_fit": 100.0 * shares.get("svr.fit", 0.0),
        "share.centrality_compute_table": 100.0 * shares.get(
            "centrality.compute_table", 0.0),
        "share.corpus_profiles": 100.0 * (shares.get("corpus.author_profile", 0.0)
                                          + shares.get("corpus.reviewer_profile", 0.0)),
    }
    assert set(out) == set(LAYER_METRICS)
    return out
