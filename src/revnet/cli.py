"""Command-line pipeline driver.

Subcommands: validate | generate | features | train | predict | analyze.
Every run writes a manifest JSON (command, config hash, input digests, seed,
outputs, timings) next to its outputs.  Every output file is written to
``<path>.tmp`` and renamed into place, so an interrupted run leaves the old
file whole.  No command mutates its inputs: before anything is written, an
output path, or its ``.tmp``, that names an input or another output (by
``os.path.samefile`` when both exist, so links count, else by
``os.path.realpath``) is a usage error.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional

from . import analysis, features, svr, synth
from .corpus import Corpus, CorpusError, read_log, validate_events, write_events
from .features import FEATURE_NAMES, NETWORK_FEATURES
from .outputs import csv_line, write_lines
from .text_metrics import LEXICON_DIR_ENV, load_lexicon

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command: str, params: dict, inputs: list,
                    outputs: list, seed, started: float,
                    extra: Optional[dict] = None) -> None:
    doc = {
        **(extra or {}),
        "command": command,
        "config_hash": hashlib.sha256(
            json.dumps(params, sort_keys=True, default=str).encode()).hexdigest(),
        "params": params,
        "inputs": {os.path.basename(str(p)): _sha256(p) for p in inputs},
        "outputs": {os.path.basename(str(p)): _sha256(p) for p in outputs},
        "seed": seed,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _identity(path) -> tuple:
    """The (device, inode) of an existing file, else None, and the real path:
    two paths name one file when both exist and their inodes match (as
    ``os.path.samefile`` finds), or when either is missing and their real
    paths match."""
    try:
        st = os.stat(path)
        inode = (st.st_dev, st.st_ino)
    except (OSError, ValueError):
        inode = None
    return inode, os.path.realpath(path)


def _same_file(a: tuple, b: tuple) -> bool:
    if a[0] is not None and b[0] is not None:
        return a[0] == b[0]
    return a[1] == b[1]


def _check_outputs(inputs: list, outputs: list) -> None:
    """Raise ``ValueError`` when an output path, or the ``<path>.tmp`` it is
    written through, names an input or an earlier output; ``None`` entries
    (options not given) are skipped.  Each path is looked up once."""
    named = [("input", p, _identity(p)) for p in inputs if p is not None]
    for out in outputs:
        if out is None:
            continue
        paths = [(path, _identity(path)) for path in (str(out), str(out) + ".tmp")]
        for kind, other, other_id in named:
            for path, path_id in paths:
                if _same_file(path_id, other_id):
                    raise ValueError(f"output {path} is the same file as {kind} {other}")
        named.append(("output", out, paths[0][1]))


def cmd_validate(args) -> int:
    started = time.monotonic()
    _check_outputs([args.log], [args.manifest])
    events, errors = read_log(args.log)
    errors = errors + validate_events(events)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"{len(events)} events, {len(errors)} error(s)")
    if args.manifest:
        _write_manifest(args.manifest, "validate", {"log": str(args.log)},
                        [args.log], [], None, started)
    return EXIT_OK if not errors else EXIT_VALIDATION


def cmd_generate(args) -> int:
    started = time.monotonic()
    _check_outputs([args.config], [args.out, str(args.out) + ".manifest.json"])
    config = synth.SynthConfig.from_file(args.config) if args.config \
        else synth.SynthConfig(seed=0)
    if args.seed is not None:
        config = synth.SynthConfig(**{**config.__dict__, "seed": args.seed})
    events = synth.generate(config)
    write_events(events, args.out)
    print(f"wrote {len(events)} events for "
          f"{config.n_years * config.papers_per_year} papers to {args.out}")
    _write_manifest(str(args.out) + ".manifest.json", "generate",
                    {**config.__dict__}, [args.config] if args.config else [],
                    [args.out], config.seed, started)
    return EXIT_OK


def cmd_features(args) -> int:
    started = time.monotonic()
    out_csv = os.path.join(args.out_dir, "features.csv")
    out_manifest = os.path.join(args.out_dir, "features.manifest.json")
    _check_outputs([args.log], [out_csv, out_csv + ".missing", out_manifest])
    corpus = Corpus.from_file(args.log)
    lexicon = load_lexicon(args.lexicon_dir)
    window = (args.year_from, args.year_to)
    cache = features.SnapshotCache(corpus)
    matrix = features.assemble_matrix(corpus, window, lexicon, cache)
    if len(matrix.paper_ids) == 0:
        print(f"warning: no accepted papers published in {window[0]}-{window[1]}",
              file=sys.stderr)
    stats = cache.stats()
    if stats["pagerank_nonconverged"]:
        print(f"warning: PageRank did not converge on {stats['pagerank_nonconverged']} "
              f"of {stats['snapshot_tables']} snapshot graphs", file=sys.stderr)
    os.makedirs(args.out_dir, exist_ok=True)
    features.write_matrix_csv(matrix, out_csv)
    print(f"{len(matrix.paper_ids)} rows x {len(FEATURE_NAMES)} features -> {out_csv}")
    _write_manifest(out_manifest, "features",
                    {"log": str(args.log), "window": list(window)},
                    [args.log], [out_csv, out_csv + ".missing"], None, started,
                    {"centrality": stats})
    return EXIT_OK


def _columns(matrix: features.AssembledMatrix, names):
    unknown = [n for n in names if n not in FEATURE_NAMES]
    if unknown:
        raise ValueError(f"model feature(s) {unknown} not in the feature CSV")
    return matrix.X[:, [FEATURE_NAMES.index(n) for n in names]]


def cmd_train(args) -> int:
    started = time.monotonic()
    _check_outputs([args.features, str(args.features) + ".missing"],
                   [args.model_out, args.report_out, str(args.model_out) + ".manifest.json"])
    config = svr.SvrConfig(C=args.C, gamma=args.gamma, epsilon=args.epsilon,
                           seed=args.seed)
    matrix = features.read_matrix_csv(args.features)
    names = NETWORK_FEATURES if args.network_only else FEATURE_NAMES
    X = _columns(matrix, names)

    # the final fit runs first, from zero, and each CV fold starts from
    # its betas; so the fold count is checked before any fit
    svr.check_folds(X, matrix.y, args.folds)
    model = svr.fit(X, matrix.y, config, names)
    report = svr.cross_validate(X, matrix.y, config, k=args.folds,
                                feature_names=names,
                                start=model.diagnostics.train_beta)
    svr.save_model(model, args.model_out)
    fits = [{"iterations": d.iterations, "converged": d.converged,
             "kkt_gap": d.kkt_gap, "n_support": d.n_support,
             "finish_rounds": d.finish_rounds,
             "finish_tries": d.finish_tries}
            for d in report.fold_fits + [model.diagnostics]]

    print(f"pooled R2   {report.r2:.4f}")
    print(f"pooled RMSE {report.rmse:.4f}")
    print("F-statistics:")
    for name in names:
        print(f"  {name:5s} {report.f_stats[name]:.4f}")
    if args.report_out:
        doc = {
            "r2": report.r2, "rmse": report.rmse, "seed": config.seed,
            "fold_r2": report.fold_r2, "fold_rmse": report.fold_rmse,
            "f_stats": report.f_stats, "features": list(names),
            "config": config.__dict__, "fits": fits,
        }
        write_lines(args.report_out, [json.dumps(doc, indent=2, sort_keys=True)])
    _write_manifest(str(args.model_out) + ".manifest.json", "train",
                    {"features": str(args.features), "C": args.C,
                     "gamma": args.gamma, "epsilon": args.epsilon,
                     "folds": args.folds, "network_only": args.network_only},
                    [args.features],
                    [args.model_out] + ([args.report_out] if args.report_out else []),
                    args.seed, started, {"fits": fits})
    return EXIT_OK


def cmd_predict(args) -> int:
    started = time.monotonic()
    _check_outputs([args.model, args.features, str(args.features) + ".missing"],
                   [args.out, str(args.out) + ".manifest.json"])
    model = svr.load_model(args.model)
    matrix = features.read_matrix_csv(args.features)
    preds = model.predict(_columns(matrix, model.feature_names))
    write_lines(args.out, map(csv_line, [("paper_id", "prediction"),
                                         *zip(matrix.paper_ids, preds.tolist())]))
    print(f"wrote {len(preds)} predictions to {args.out}")
    _write_manifest(str(args.out) + ".manifest.json", "predict",
                    {"model": str(args.model), "features": str(args.features)},
                    [args.model, args.features], [args.out], None, started)
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.monotonic()
    out_manifest = os.path.join(args.out_dir, "run.manifest.json")
    _check_outputs([args.log], [os.path.join(args.out_dir, name)
                                for name in analysis.OUTPUT_FILES] + [out_manifest])
    corpus = Corpus.from_file(args.log)
    lexicon = load_lexicon(args.lexicon_dir)
    manifest = analysis.run_all(corpus, lexicon, args.out_dir,
                                args.exposure_cutoff)
    outputs = [os.path.join(args.out_dir, entry["file"])
               for entry in manifest["analyses"].values()]
    print(f"wrote {len(outputs)} analyses to {args.out_dir}")
    _write_manifest(out_manifest, "analyze",
                    {"log": str(args.log),
                     "exposure_cutoff": manifest["exposure_cutoff_year"]},
                    [args.log], outputs, None, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revnet",
        description="Reviewer-network analytics and citation-rank prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an event log")
    p.add_argument("log")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic event log")
    p.add_argument("out")
    p.add_argument("--config", default=None, help="JSON generator config")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config's seed (default: the config's, else 0)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("features", help="assemble the regression matrix")
    p.add_argument("log")
    p.add_argument("out_dir")
    p.add_argument("--year-from", type=int, required=True)
    p.add_argument("--year-to", type=int, required=True)
    p.add_argument("--lexicon-dir", default=None,
                   help=f"overrides ${LEXICON_DIR_ENV} and the packaged lists")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="cross-validate and fit the regressor")
    p.add_argument("features")
    p.add_argument("model_out")
    p.add_argument("--C", type=float, default=100.0)
    p.add_argument("--gamma", type=float, default=0.02)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--network-only", action="store_true",
                   help="use only Deg,BC,CC,Clus,PR")
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a feature CSV with a saved model")
    p.add_argument("model")
    p.add_argument("features")
    p.add_argument("out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("analyze", help="write the descriptive analysis bundle")
    p.add_argument("log")
    p.add_argument("out_dir")
    p.add_argument("--exposure-cutoff", type=int, default=None)
    p.add_argument("--lexicon-dir", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
