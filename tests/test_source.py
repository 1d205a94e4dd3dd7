"""Source rules for the package itself."""

import ast
import re
from pathlib import Path

import poolgp

PACKAGE = Path(poolgp.__file__).resolve().parent


def parsed_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def name_of(node) -> str | None:
    """`errstate` for `np.errstate`, `numpy.errstate` or a bare `errstate`; else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements; invariants raise InvariantError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_sets_no_per_call_or_lasting_float_error_state():
    # a decorator enters numpy's error state on every call, where the score
    # pass enters it once; seterr would change it past the end of the call
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [f"{path.name}:{d.lineno} @errstate" for d in node.decorator_list
                          if name_of(d.func if isinstance(d, ast.Call) else d) == "errstate"]
            if name_of(node) == "seterr":
                found.append(f"{path.name}:{node.lineno} seterr")
    assert found == []


def test_package_rebinds_no_module_global():
    # breeder threads share every module, so a module global that a function
    # rebinds is mutable state shared between them
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


def test_the_top_level_api_is_the_run_api():
    # the engines' parts stay in their modules; the package exports what a run needs
    assert poolgp.__all__ == [
        "EvolutionResult", "GenerationStats", "InvariantError", "PooledEngine", "Problem",
        "QUARTIC", "RunConfig", "emit_csv", "float_errors_ignored", "run_evolution",
        "run_evolution_naive",
    ]
    assert not {"BreedingPlan", "BufferPool", "Individual"} & vars(poolgp).keys()


def scoped(node, scope=""):
    """(dotted name of the enclosing class or function, "" at module level; node) for every
    node below `node`."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped(child, f"{scope}.{child.name}".lstrip("."))
        else:
            yield from scoped(child, scope)


def test_only_the_config_gate_converts_settings():
    # RunConfig.validate stores every setting back as a plain int, so the layers inside take
    # them as they are; an operator.index elsewhere would convert a setting a second time
    found, gate = [], []
    for path, tree in parsed_modules():
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name == "operator"}
        for scope, node in scoped(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and name_of(node.value) in names
                    or isinstance(node, ast.ImportFrom) and node.module == "operator"
                    and "index" in {alias.name for alias in node.names}):
                (gate if (path.name, scope) == ("engine.py", "RunConfig.validate")
                 else found).append(f"{path.name}:{node.lineno} {scope}")
    assert found == [] and gate, (found, gate)


# where the package may import numpy: only to enter its error state where it is already
# imported, for a user fitness written in numpy
NUMPY_SCOPES = {("genome.py", "float_errors_ignored")}


def test_numpy_is_imported_only_inside_the_scopes_that_use_it():
    # no run imports numpy, which would be most of its memory and set-up: no module imports
    # it at its top, and only the error state's context imports it, where it is imported
    found, seen = [], set()
    for path, tree in parsed_modules():
        for scope, node in scoped(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                seen.add((path.name, scope))
                if (path.name, scope) not in NUMPY_SCOPES:
                    found.append(f"{path.name}:{node.lineno} {scope or 'module level'}")
    assert found == [] and seen == NUMPY_SCOPES, (found, NUMPY_SCOPES - seen)


def c_functions(source: str) -> dict[str, str]:
    """The body of each function that C `source` defines, by name."""
    bodies = {}
    for head in re.finditer(r"^[A-Za-z][^;{}]*?\b(\w+)\((?:[^()]|\([^()]*\))*\)\s*\{", source,
                            re.M):
        depth, end = 1, head.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(source[end], 0)
            end += 1
        bodies[head.group(1)] = source[head.end():end]
    return bodies


def test_the_kernel_reads_every_typed_argument_through_read_buffer():
    # read_buffer is the one place that asks an exporter for its format, and it refuses
    # anything but an aligned, C-contiguous buffer of one format with TypeError naming its
    # caller: no function checks a format itself, and none leaves the refusal to its caller
    bodies = c_functions((PACKAGE / "_kernel.c").read_text())
    call = r"\((?:[^()]|\([^()]*\))*\)"  # an argument list, one level of parentheses deep
    found = []
    for name, body in bodies.items():
        for request in re.finditer(r"PyObject_GetBuffer" + call, body):
            if name != "read_buffer" and re.search(r"PyBUF_(FORMAT|RECORDS)", request[0]):
                found.append(f"{name}: {request[0]}")
        for read in re.finditer(r"\bread_buffer" + call, body):
            if read[0][:-1].rsplit(",", 1)[-1].strip() != f'"{name}"':
                found.append(f"{name}: {read[0]}")
    assert {"read_buffer", "evaluate", "crossover", "draw", "plan", "abs_error",
            "breed"} <= set(bodies)
    assert "PyBUF_RECORDS" in bodies["read_buffer"] and found == [], found
