"""The benchmark's tracer (bench/layers.py) looks up package names such as
`DensitySpec.pdf` and `entropy.shannon_entropy` to wrap them, so deleting or
renaming one breaks every traced benchmark run.  The bench's own tests are
not part of this suite; this guard installs the tracer here and checks that
uninstalling it puts every original back."""

import importlib.util
import inspect
import sys
from pathlib import Path

import entrokit
from entrokit import distributions, entropy

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespace():
    """Every attribute of every loaded entrokit module, and of every class
    defined in one."""
    found = {}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "entrokit"]
    for module in modules:
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("entrokit"):
                for member, inner in vars(value).items():
                    found[(value.__module__, value.__qualname__, member)] = inner
    return found


def test_tracer_installs_and_uninstalls_cleanly():
    layers = load_layers()
    for layer in layers.LAYERS:  # install() imports them too; load them first
        importlib.import_module(f"entrokit.{layer}")
    before = package_namespace()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert entrokit.shannon_entropy is not before[("entrokit", "shannon_entropy")]
        assert entropy.shannon_entropy is not before[("entrokit.entropy", "shannon_entropy")]
        spec = distributions.DensitySpec
        for member in ("pdf", "cdf", "__post_init__"):
            key = ("entrokit.distributions", "DensitySpec", member)
            assert vars(spec)[member] is not before[key], member
    finally:
        tracer.uninstall()
    after = package_namespace()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
