"""Every function the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` resolves its ``TARGETS`` by name at run time, so
deleting or renaming one of them would only surface when the benchmark
runs.  This test loads the tracer by path and resolves each target on the
imported ``revnet`` modules.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for mod_name, path in targets:
        owner = importlib.import_module(mod_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{mod_name}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"{mod_name}.{path} is not callable"
