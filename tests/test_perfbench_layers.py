"""Every module of the program has a layer in the benchmark's table.

``perfbench/layers.py`` maps each module under ``src/repro/`` to a
cost layer, and its ``check_table`` raises on a module that no
pattern matches, which would fail the benchmark's traced pass.  This
test runs the same check in tier-1, so a new module with no layer
fails here first.  The benchmark file is loaded read-only.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_program_module_has_a_layer():
    layers = _perfbench_layers()
    mapping = layers.check_table(ROOT / "src" / "repro")
    assert "core/profile" in mapping
    assert set(mapping.values()) <= set(layers.LAYER_NAMES)
