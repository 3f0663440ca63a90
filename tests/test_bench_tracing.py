"""The benchmark's traced names exist in glint, and tracing leaves no wrapper behind.

The benchmark smoke test runs untraced (`--trace 0`), so a glint function that
is renamed or deleted while bench/tracing.py still names it would otherwise
only break traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import glint  # noqa: F401  (loads every glint module the tracer patches)

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings() -> dict:
    """Every name bound in a loaded glint module or in a traced class, by identity key."""
    owners = {name: vars(m) for name, m in sys.modules.items()
              if m is not None and (name == "glint" or name.startswith("glint."))}
    for module, attr, _ in tracing.TARGETS:
        if "." in attr:
            cls_name = attr.split(".")[0]
            owners[f"{module}.{cls_name}"] = vars(_resolve(module, cls_name))
    return {(owner, name): value for owner, names in owners.items() for name, value in names.items()}


def test_every_traced_name_resolves_in_glint():
    missing = []
    for module, attr, span in tracing.TARGETS:
        try:
            target = _resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr} ({span})")
            continue
        assert callable(target), f"{module}.{attr} is not callable"
    assert missing == []


def test_uninstall_puts_every_original_back():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert len(wrapped) >= len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
