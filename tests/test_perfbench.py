"""The benchmark's trace mode wraps qupel functions by name; they must all exist."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = []
    for name, (module_name, attr) in traced.SPANS.items():
        owner = importlib.import_module(module_name)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = vars(owner).get(cls_name)
            found = owner is not None and fn_name in vars(owner)
        else:
            found = callable(getattr(owner, fn_name, None))
        if not found:
            missing.append(f"{name} -> {module_name}.{attr}")
    assert traced.SPANS and not missing, missing
