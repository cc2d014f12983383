"""Hygiene of the package sources, checked with `ast` (no linter is
required): every imported name is used, no import hides in a function body
(the module graph is acyclic, so none is needed to break a cycle), and
every function, method and class has a caller outside the tests, unless
it is public."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import negabeta

SOURCES = sorted(Path(negabeta.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (except __future__ ones) -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    local = [(fn.name, node.lineno)
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"{path.name}: imports inside functions {local}"


# where a definition may be named: the package, its tests, the scripts and
# the benchmark (which wraps some methods by their name as a string)
ROOT = Path(__file__).resolve().parent.parent
CALLERS = SOURCES + sorted(p for tree in ("tests", "scripts", "perfbench")
                           for p in (ROOT / tree).rglob("*.py"))


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named under node, keyed by (how, name):
    "bare" for a name or an imported name, "member" for an attribute or a
    whole string constant."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out["bare", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out["member", n.attr] += 1
        elif isinstance(n, ast.alias):
            out["bare", n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out["member", n.value] += 1
    return out


def _definitions(tree: ast.Module):
    """(definition, the name of its class if it is a method, else None)
    for every function, method and class."""
    owner = {id(fn): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for fn in cls.body
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return [(fn, owner.get(id(fn))) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))]


def _unnamed(callers: list[Path], exempt=frozenset()) -> list[str]:
    """The definitions in the package that no file of `callers` names
    outside their own body, except dunders, the names in `exempt` and the
    methods of the classes named there."""
    named = sum((_names(_tree(p)) for p in callers), Counter())

    def count(counter, name, method):
        # a method is reached only through an attribute or by its name as
        # a string; a bare name of the same spelling is something else
        hows = ("member",) if method else ("bare", "member")
        return sum(counter[how, name] for how in hows)

    return [f"{path.name}:{fn.lineno} {fn.name}"
            for path in SOURCES
            for fn, owner in _definitions(_tree(path))
            if not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in exempt and owner not in exempt
            # names inside the definition itself (recursion) do not count
            and count(named, fn.name, owner is not None)
            == count(_names(fn), fn.name, owner is not None)]


def test_every_definition_named():
    unnamed = _unnamed(CALLERS)
    assert not unnamed, f"defined but never named elsewhere: {unnamed}"


def test_every_definition_runs_outside_tests():
    # code that only the tests call belongs in tests/oracles.py; the public
    # names and the methods of the public classes are exempt
    runners = [p for p in CALLERS if ROOT / "tests" not in p.parents]
    unnamed = _unnamed(runners, frozenset(negabeta.__all__))
    assert not unnamed, f"named only in tests: {unnamed}"


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg) if p is not None]


def test_no_horizon_parameter():
    # the digit horizon is one value per run, set with language.at_horizon
    found = [(path.name, fn.name) for path in SOURCES
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and "horizon" in _parameters(fn)]
    assert found == []


def test_horizon_read_in_one_place():
    # only language holds the context variable, whose value is the run:
    # at_horizon sets and resets it, Reference.for_beta is the one reader
    # of the run's horizon, and the decorator kept_per_run (with the
    # function it defines) the one reader of the run's store
    holders = {path.name for path in SOURCES for n in ast.walk(_tree(path))
               if isinstance(n, ast.Name) and n.id in ("_RUN", "ContextVar")
               or isinstance(n, ast.Attribute) and n.attr == "_RUN"
               or isinstance(n, ast.alias)
               and n.name in ("_RUN", "ContextVar", "contextvars")}
    assert holders == {"language.py"}
    uses, reads = [], set()
    tree = _tree(SOURCES[0].parent / "language.py")
    methods = [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for fn in tree.body + sum(methods, []):  # with the functions nested in it
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # the run as _RUN.get(), and the names bound to it
        runs = {"_RUN.get()"} | {
            ast.unparse(t) for n in ast.walk(fn) if isinstance(n, ast.Assign)
            and ast.unparse(n.value) == "_RUN.get()" for t in n.targets}
        for n in ast.walk(fn):
            if isinstance(n, ast.Attribute):
                owner = ast.unparse(n.value)
                if owner == "_RUN":
                    uses.append((fn.name, n.attr))
                elif owner in runs:
                    reads.add((fn.name, n.attr))
    assert sorted(uses) == [("at_horizon", "reset"), ("at_horizon", "set"),
                            ("for_beta", "get"), ("kept_per_run", "get")]
    assert sorted(reads) == [("for_beta", "horizon"),
                             ("kept_per_run", "kept")]
