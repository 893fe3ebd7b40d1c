"""The benchmark's per-layer metrics that name a traced function must keep
naming a module-level function: ``bench/tracer.py`` wraps only those, so a
metric whose function became a method, went private or was renamed would
silently read 0."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_metrics_name_traced_functions():
    tracer = load_tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"].split(".") for m in spec["per_layer"]]
    functions = sorted({(module, function) for module, function, *stat in names
                        if len(stat) == 1 and module in tracer.TRACED_MODULES})
    assert functions
    broken = []
    for module_name, function in functions:
        module = importlib.import_module(f"ruleproofs.{module_name}")
        value = vars(module).get(function)
        if (not inspect.isfunction(value) or value.__module__ != module.__name__
                or f"{module_name}.{function}" in tracer.UNTRACED):
            broken.append(f"{module_name}.{function}")
    assert broken == []
