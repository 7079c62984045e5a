import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import qq22
from qq22.engine import CorrelatorEngine
from qq22.scalars import GaussianRational

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SOURCES = sorted((ROOT / "src" / "qq22").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in qq22.__all__ if not hasattr(qq22, name)]
    assert missing == []
    assert len(set(qq22.__all__)) == len(qq22.__all__)


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer patches these by name; one that is renamed away
    # would make `perfbench/run.py --trace 1` fail at install time
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (short, name)
        for short, names in tracer.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module("qq22." + short), name, None))
    ]
    missing += [m for m in tracer.ENGINE_METHODS if m not in vars(CorrelatorEngine)]
    missing += [m for m in tracer.GAUSSIAN_OPS if m not in vars(GaussianRational)]
    assert missing == []


def _nodes(tree, test):
    return [node for node in ast.walk(tree) if test(node)]


def _is_rational_tuple(node):
    names = sorted(getattr(e, "id", "") for e in getattr(node, "elts", ()))
    return isinstance(node, ast.Tuple) and names == ["Fraction", "int"]


def _is_format_read(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "format"
        and getattr(node.value, "id", None) == "args"
    )


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 10 ms of
    # every process that imports qq22
    code = "import sys, qq22; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module]
    return []


def test_runtime_imports_only_the_standard_library():
    # the package stays stdlib-only at runtime: every absolute import names a
    # standard-library module, and every other import is relative
    absolute, relative = [], 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative += 1
            else:
                absolute += [(path.name, name) for name in _imported(node)]
    assert relative and absolute
    outside = [(f, name) for f, name in absolute if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _is_inexact(node):
    if isinstance(node, ast.Constant):
        return type(node.value) in (float, complex)
    return isinstance(node, ast.Name) and node.id in ("float", "complex")


def test_package_has_no_floats():
    # all arithmetic is exact: no module has a float or complex literal or
    # names the float or complex type
    found = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in _nodes(ast.parse(path.read_text()), _is_inexact)
    ]
    assert found == []


def test_each_rule_has_one_home():
    # the int-or-Fraction test lives in qq22.scalars (RATIONAL, check_rational,
    # as_fraction), the --format choice in cli._report and the dimension rule
    # in model.check_dimension; a second copy of any fails here
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    tuples = [name for name, tree in trees.items() for _ in _nodes(tree, _is_rational_tuple)]
    assert tuples == ["scalars.py"]
    reads = sum(len(_nodes(tree, _is_format_read)) for tree in trees.values())
    (report,) = [
        node
        for node in _nodes(trees["cli.py"], lambda n: isinstance(n, ast.FunctionDef))
        if node.name == "_report"
    ]
    assert reads == len(_nodes(report, _is_format_read)) == 1
    imports = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if "dataclasses" in _imported(node)
    ]
    assert imports == []
    homes = [path.name for path in SOURCES if "dimension must be even and >= 4" in path.read_text()]
    assert homes == ["model.py"]
