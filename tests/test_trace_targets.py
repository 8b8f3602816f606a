"""The benchmark tracer must keep working against the package.

``bench/tracer.py`` resolves its ``TARGETS`` by name at run time and reads
attributes of their results, so deleting or renaming one of them would only
surface when the benchmark runs.  These tests load the tracer by path,
resolve each target on the imported ``revnet`` modules, and run a tiny
traced pipeline in this process.
"""

import importlib
import importlib.util
from pathlib import Path

import revnet.cli
from revnet.corpus import write_events
from revnet.synth import SynthConfig, generate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for mod_name, path in targets:
        owner = importlib.import_module(mod_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{mod_name}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"{mod_name}.{path} is not callable"


def test_traced_pipeline_reports_what_the_tracer_observes(tmp_path):
    """``Tracer._observe`` reads attributes of graphs, tables, fits, corpora
    and matrices; each counter below stays 0 if one of them is renamed, and
    the sentiment count stays 0 if ``features`` stops calling
    ``text_metrics.sentiment_score`` under that name."""
    log = tmp_path / "log.jsonl"
    write_events(generate(SynthConfig(seed=1, papers_per_year=40, n_years=3,
                                      n_reviewers=20, n_editors=4,
                                      n_authors=40)), log)
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        for argv in (["features", str(log), str(tmp_path / "features"),
                      "--year-from", "2008", "--year-to", "2009"],
                     ["train", str(tmp_path / "features" / "features.csv"),
                      str(tmp_path / "model.json"), "--folds", "3"],
                     ["analyze", str(log), str(tmp_path / "analysis")]):
            assert revnet.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = module.layer_metrics(tracer.spans, tracer.counters)
    for name in ("centrality.distinct_graphs", "review_graph.edges_max",
                 "corpus.events", "svr.smo_iters", "features.rows",
                 "text_metrics.sentiment_calls"):
        assert metrics[name] > 0, name
