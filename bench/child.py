"""One benchmark child process: a set-up or one pass of a workload's pipeline.

    python3 child.py setup    SPEC
    python3 child.py pipeline SPEC

SPEC is a JSON file written by ``run.py`` with ``root`` (the checkout whose
``src/revnet`` is measured), ``workload`` (a workload dict), ``seed``,
``log``, ``work``, ``trace`` and ``result`` (where this process writes its
JSON result).  ``setup`` imports revnet, generates the corpus and writes the
log; ``pipeline`` runs the workload's CLI stages in this one process, one
after another, through ``revnet.cli.main``, and times a fixed reference
routine before the first stage, between stages and after the last.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback


def _import_revnet(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import revnet
    if os.path.dirname(os.path.dirname(os.path.abspath(revnet.__file__))) != src:
        raise ImportError(f"revnet imported from {revnet.__file__}, not {src}")
    import revnet.cli  # noqa: F401  (loads every layer module before patching)


def _blas():
    import numpy
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def setup(spec, tracer):
    from revnet import synth
    from revnet.corpus import write_events
    config = synth.SynthConfig(seed=spec["seed"], **spec["workload"]["config"])
    if tracer:
        tracer.install()
    events = synth.generate(config)
    write_events(events, spec["log"])
    import numpy
    return {"events": len(events), "config": dataclasses.asdict(config),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": _blas()}


def reference_seconds():
    """Time of a fixed mix of interpreter-bound and numpy-bound work, taken
    before and after each stage to follow the host's speed (see run.py)."""
    import numpy as np
    started = time.perf_counter()
    total, table = 0, {}
    for k in range(400_000):
        total += (k * k) % 7
        table[k & 255] = total
    a, b = np.arange(1000, dtype=float), np.zeros(1000)
    for _ in range(4000):
        b = np.where(a > b, a - b, b * 0.5)
        int(np.argmax(b))
    return time.perf_counter() - started


def pipeline(spec, tracer):
    from revnet import cli
    if tracer:
        tracer.install()
    lo, hi = spec["workload"]["window"]
    fields = {"log": spec["log"], "work": spec["work"], "lo": lo, "hi": hi}
    stages, refs = [], []
    with open(os.path.join(spec["work"], "stages.log"), "w", encoding="utf-8") as out:
        for i, stage in enumerate(spec["workload"]["stages"]):
            argv = [a.format(**fields) for a in stage["argv"]]
            print(f"$ revnet {' '.join(argv)}", file=out, flush=True)
            refs.append(reference_seconds())
            span = contextlib.nullcontext()
            if tracer:
                tracer.run = f"{i}:{stage['name']}"
                span = tracer.span("cli." + argv[0])
            started = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed stage, not a failed benchmark
                traceback.print_exc(file=out)
                rc = -1
            seconds = time.perf_counter() - started
            stages.append({"name": stage["name"], "command": argv[0],
                           "rc": rc, "seconds": seconds})
    refs.append(reference_seconds())
    return {"stages": stages, "refs": refs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_revnet(spec["root"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    result = {"setup": setup, "pipeline": pipeline}[mode](spec, tracer)
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
