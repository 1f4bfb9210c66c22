"""Checks on what the library imports."""

import ast
import pathlib

import ccsolid

SRC = pathlib.Path(ccsolid.__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from ("%s.%s" % (node.module, alias.name)
                        for alias in node.names)


def test_no_module_imports_scipy_linalg():
    # scipy ships its own OpenBLAS with its own thread pool.  Dense LAPACK
    # calls through scipy.linalg between numpy's GEMMs left the two pools'
    # spinning workers fighting for the cores: on a 2-core machine that
    # cost the multi-resolution heat iteration a third of its time.  Dense
    # linear algebra goes through numpy; scipy.sparse and scipy.spatial
    # stay allowed.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bad = [(path.name, name) for path in modules
           for name in _imported_modules(ast.parse(path.read_text()))
           if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert not bad, bad


def test_every_exported_name_resolves():
    # `from ccsolid import *` fails on the first name that no longer exists
    missing = [name for name in ccsolid.__all__ if not hasattr(ccsolid, name)]
    assert not missing, missing


def _unused_imports(tree):
    """Names an import binds in the module and nothing reads; a name
    listed in `__all__` counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_an_unused_name():
    # a leftover import hides which module a decision really lives in
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bad = [(path.name, line, name) for path in modules
           for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not bad, bad


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, first line, last line) of every private module-level name
    and private method the module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            names = []
        for name in filter(_private, names):
            yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and _private(item.name)):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name the module reads, as a variable, an
    attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_private_name_is_used():
    # a private helper nothing calls any more is dead code left behind by
    # a change that replaced it; a use inside its own definition (such as
    # a recursive call) does not count
    modules = sorted(SRC.glob("*.py"))
    assert modules
    trees = {path.name: ast.parse(path.read_text()) for path in modules}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unused = [(path, first, name) for path, tree in trees.items()
              for name, first, last in _private_definitions(tree)
              if not any(p != path or not first <= line <= last
                         for p, line in refs.get(name, ()))]
    assert not unused, unused
