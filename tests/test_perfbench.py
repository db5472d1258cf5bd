"""The benchmark's hold on the package: every fsglab name that perfbench
traces or calls still resolves, so a deletion cannot break ``--trace 1``
or a workload."""

import ast
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _source(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return fh.read()


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"fsglab.{module}"), name, None)), \
            (module, name)


def test_workload_attributes_resolve():
    # names imported from fsglab.<module>, and <module>.<name> for every
    # module imported from the package root
    tree = ast.parse(_source("workloads.py"))
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fsglab":
            modules.update((a.asname or a.name, f"fsglab.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fsglab."):
            used.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
    assert len(used) > 20
    missing = [(module, name) for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
