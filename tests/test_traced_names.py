"""The benchmark's tracer (perfbench/spans.py) derives per-layer metrics from
spans named after public functions and methods of vtagent. A refactor that
inlines or renames one of them would silently zero its metric, so every name
the tracer reads must resolve here. spans.py is parsed, not imported."""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> set[str]:
    """Keys of COMPLETE and EXTRA, BUILD_PROMPT, and the literal names that
    layer_metrics passes to durs(...) or by_name.get(...)."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("COMPLETE", "EXTRA"):
                names.update(key.value for key in node.value.keys)
            elif node.targets[0].id == "BUILD_PROMPT":
                names.update(elt.value for elt in node.value.elts)
    (layer,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"]
    for call in ast.walk(layer):
        if not (isinstance(call, ast.Call) and call.args
                and isinstance(call.args[0], ast.Constant)):
            continue
        fn = call.func
        if (isinstance(fn, ast.Name) and fn.id == "durs") or (
                isinstance(fn, ast.Attribute) and fn.attr == "get"
                and isinstance(fn.value, ast.Name) and fn.value.id == "by_name"):
            names.add(call.args[0].value)
    return names


def resolves(name: str) -> bool:
    """module.function or module.Class.method, public and defined in that module,
    as the tracer names its spans."""
    module_name, *path = name.split(".")
    module = importlib.import_module(f"vtagent.{module_name}")
    if any(part.startswith("_") for part in path):
        return False
    if len(path) == 1:
        fn = vars(module).get(path[0])
        return inspect.isfunction(fn) and fn.__module__ == module.__name__
    if len(path) == 2:
        cls = vars(module).get(path[0])
        return (inspect.isclass(cls) and cls.__module__ == module.__name__
                and inspect.isfunction(vars(cls).get(path[1])))
    return False


def test_every_traced_name_is_a_public_function():
    names = traced_names()
    assert {"engine.complete_with_retry", "engine.run_episode", "oracle.framewise_eval",
            "backends.request_digest", "engine.build_anchor_prompt",
            "backends.HttpBackend.complete"} <= names
    assert sorted(n for n in names if not resolves(n)) == []
