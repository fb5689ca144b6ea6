"""Every name a module of the package imports is used in that module, and
every top-level function or class of the package is reached.

Read with the standard ``ast`` and ``symtable`` modules only.  A name bound
by an ``import`` must occur as a name (a load, or the base of an attribute)
or inside a quoted annotation; names listed in the module's ``__all__`` are
re-exports and exempt.  A top-level def or class is live when its own
module reads it as a global outside its own body (scopes resolved by
``symtable``, so a parameter or local of the same name does not count),
another module or a README python block imports it or reads it as an
attribute of its module, or its module's ``__all__`` lists it.  No module
of the package or of its tests reads the product table ``mult`` by a pair
key: it is stored as rows {i: {j: terms}}, where a pair lookup silently
finds nothing.  No module of the package calls ``mul_raw`` on two basis
vectors: e_i e_j is read off the stored row.  Importing the CLI loads
neither the introspection modules nor ``typing``.
"""

import ast
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfcomm"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def _imported(tree):
    """(name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "HElem"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    src = ("from dataclasses import dataclass, field\n"
           "import os.path\n"
           "from .x import A as B, C\n"
           "__all__ = ['C']\n"
           "@dataclass\nclass K:\n    v: 'os.sep'\n")
    assert unused_imports(src) == [("field", 1), ("B", 3)]


def _fresh_import(code: str, *flags: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that can import the
    package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, which cost every
    # command about 10 ms of start-up; no module of the package needs them
    code = ("import sys; before = set(sys.modules); import hopfcomm.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')"
            " if m in sys.modules and m not in before))")
    assert _fresh_import(code).split() == ["[]"]


def test_cli_import_loads_no_typing():
    # Every annotation of the package is a string (PEP 563), so none needs
    # typing at run time, which costs about 7 ms of start-up.  -S keeps site
    # out: a .pth file of an installed package may load typing itself.
    code = "import sys, hopfcomm.cli; print('typing' in sys.modules)"
    assert _fresh_import(code, "-S").split() == ["False"]


def _reached(tree):
    """(module, name) of each package name the source imports, or reads as
    an attribute of a package module it imports."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "hopfcomm"):
            stem = (node.module or "").removeprefix("hopfcomm").lstrip(".") or "__init__"
            for alias in node.names:
                yield stem, alias.name
                if stem == "__init__":  # from . import m
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("hopfcomm."):
                    modules[alias.asname] = alias.name.rpartition(".")[2]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def _reads_global(table, name, skip) -> bool:
    """Whether ``table`` or a scope nested in it, other than the scope
    ``skip`` (name, line) and those nested in it, reads ``name`` as a
    global."""
    if name in table.get_identifiers():
        sym = table.lookup(name)
        if sym.is_global() and sym.is_referenced():
            return True
    return any(_reads_global(child, name, skip) for child in table.get_children()
               if (child.get_name(), child.get_lineno()) != skip)


def dead_definitions(modules: dict, readme_blocks=()) -> list:
    """(module, name) of each top-level def or class of ``modules`` ({module
    name: source}) that is not live."""
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    reached = {pair for tree in [*trees.values(), *map(ast.parse, readme_blocks)]
               for pair in _reached(tree)}
    dead = []
    for stem, tree in trees.items():
        top = symtable.symtable(modules[stem], stem, "exec")
        exported = _exported(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and (stem, node.name) not in reached and node.name not in exported
                    and not _reads_global(top, node.name, (node.name, node.lineno))):
                dead.append((stem, node.name))
    return dead


def test_every_top_level_definition_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert dead_definitions(sources, README_BLOCKS) == []


def test_dead_definition_detected():
    m = ("from .n import imported\n"
         "from . import n as alias\n"
         "__all__ = ['exported']\n"
         "def parameter(): pass\n"
         "def local(): pass\n"
         "def recursive(k): return recursive(k - 1)\n"
         "def wrapped(): pass\n"
         "def exported(): pass\n"
         "def user(parameter):\n"
         "    local = parameter\n"
         "    return [local for parameter in alias.attribute()]\n"
         "cached = memo(wrapped)\n")
    n = ("def imported(): pass\n"
         "def attribute(): pass\n"
         "class Orphan:\n"
         "    def method(self): return Orphan\n")
    assert dead_definitions({"m": m, "n": n}) == [
        ("m", "parameter"), ("m", "local"), ("m", "recursive"), ("m", "user"),
        ("n", "Orphan")]
    assert dead_definitions({"m": m, "n": n}, ["from hopfcomm.m import user"]) == [
        ("m", "parameter"), ("m", "local"), ("m", "recursive"), ("n", "Orphan")]


LOOP_CALLS = {("runlog", "record"), ("_modp", "next_prime_in_ap")}


def loop_calls(source: str) -> list:
    """(callee, line) of each call in ``source`` of ``runlog.record`` or
    ``_modp.next_prime_in_ap``, by name or as a module attribute."""
    tree = ast.parse(source)
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            stem = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if (stem, alias.name) in LOOP_CALLS:
                    names[alias.asname or alias.name] = f"{stem}.{alias.name}"
                elif any(alias.name == m for m, _ in LOOP_CALLS):
                    modules[alias.asname or alias.name] = alias.name
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            calls.append((names[f.id], node.lineno))
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and (modules.get(f.value.id), f.attr) in LOOP_CALLS):
            calls.append((f"{modules[f.value.id]}.{f.attr}", node.lineno))
    return sorted(calls, key=lambda c: c[1])


def test_only_modp_picks_primes_and_records_events():
    # the prime/retry loop of every modular proposal is _modp.first_certified
    found = {path.stem: loop_calls(path.read_text(encoding="utf-8"))
             for path in MODULES if path.stem != "_modp"}
    assert {stem: calls for stem, calls in found.items() if calls} == {}


def test_loop_call_detected():
    src = ("from . import runlog as log, _modp\n"
           "from ._modp import next_prime_in_ap as nxt\n"
           "def f(p):\n"
           "    log.record('s', prime=p)\n"
           "    log.drain()\n"
           "    return nxt(p, 6) + _modp.next_prime_in_ap(p, 6) + _modp.is_prime(p)\n")
    assert loop_calls(src) == [("runlog.record", 4), ("_modp.next_prime_in_ap", 6),
                               ("_modp.next_prime_in_ap", 6)]


def _is_mult(node) -> bool:
    """The attribute ``.mult``, or a local name ``mult`` (its usual alias)."""
    return ((isinstance(node, ast.Attribute) and node.attr == "mult")
            or (isinstance(node, ast.Name) and node.id == "mult"))


def pair_reads(source: str) -> list:
    """Lines where ``source`` indexes ``.mult`` (or a name ``mult``) with a
    tuple or calls its ``get`` with a tuple as the key."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and _is_mult(node.value)
                and isinstance(node.slice, ast.Tuple)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and _is_mult(node.func.value)
                and node.args and isinstance(node.args[0], ast.Tuple)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_mult_is_read_by_rows(path):
    assert pair_reads(path.read_text(encoding="utf-8")) == []


def test_pair_read_detected():
    src = ("a = H.mult[(i, j)]\n"
           "b = H.mult[i, j]\n"
           "c = self.mult.get((i, j), ())\n"
           "d = H.mult.get(i, {}).get(j, ())\n"
           "e = H.mult[i][j]\n"
           "f = table.get((i, j))\n"
           "g = H.comult[(i, j)]\n"
           "mult = H.mult\n"
           "h = mult.get((i, j))\n"
           "k = mult.get(i)\n")
    assert pair_reads(src) == [1, 2, 3, 9]


def _is_basis_vector(node) -> bool:
    """A one-entry dict display such as {i: _ONE}, or a call of ``basis_vec``."""
    return ((isinstance(node, ast.Dict) and len(node.keys) == 1 and node.keys[0] is not None)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "basis_vec"))


def basis_products(source: str) -> list:
    """Lines where ``source`` calls ``mul_raw`` on two basis vectors, each a
    one-entry dict display or a ``basis_vec`` call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "mul_raw" and len(node.args) == 2
                  and all(map(_is_basis_vector, node.args)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_basis_products_are_read_off_the_rows(path):
    # e_i e_j is the stored terms of row i at j (hopf._product_terms)
    assert basis_products(path.read_text(encoding="utf-8")) == []


def test_basis_product_detected():
    src = ("a = H.mul_raw({i: _ONE}, {j: _ONE})\n"
           "b = H.mul_raw(H.basis_vec(i), H.basis_vec(j))\n"
           "c = H.mul_raw({i: _ONE}, H.basis_vec(j))\n"
           "d = H.mul_raw({i: _ONE}, v)\n"
           "e = H.mul_raw({i: _ONE, j: _ONE}, {j: _ONE})\n"
           "f = H.mul_raw({**u}, {j: _ONE})\n"
           "g = H.func_mul_raw({i: _ONE}, {j: _ONE})\n"
           "h = H.mul_raw(basis[i], basis[j])\n")
    assert basis_products(src) == [1, 2, 3]
