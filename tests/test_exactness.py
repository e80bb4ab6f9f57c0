"""Static guards: the package source never touches floats, only
``exterior`` knows the sign convention, and only ``exterior`` defines the
index tables.

Every module of ``msf7`` is parsed with ``ast``.  A float (or complex)
literal, the name ``float``, or a ``math`` function other than the integer
ones (``lcm``, ``gcd``, ``isqrt``) fails the scan.  So does any mention of
the sign routine ``_sort_with_sign`` outside ``exterior.py``: other modules
read their signs off ``wedge`` and ``interior``.  A definition of
``_SUBSETS``, ``_INDEX`` or ``_wedge_table`` (an assignment, a def or a
class) outside ``exterior.py`` fails too: other modules import them, so one
copy of each table exists.  Every module-level def or class must be named
somewhere in the package or exported in an ``__all__``, and every non-dunder
method reached from the package; a use in the tests or the benchmark does
not count, so a definition only they reach lives with them.  ``forms7``
imports nothing from the package but ``exterior``.  Every name a package
module or a test file imports is named again in that file or listed in its
``__all__`` (``from __future__`` imports are exempt).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import msf7

INTEGER_MATH = {"lcm", "gcd", "isqrt"}
SOURCES = sorted(Path(msf7.__file__).parent.glob("*.py"))
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exterior.py", "forms7.py", "algebras.py",
                                          "stabilizers.py", "topology.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "y = float(x)",
    "isinstance(x, float)",
    "import math\ny = math.sqrt(2)",
    "import math\ny = math.pi",
    "from math import sqrt",
])
def test_scan_catches(snippet):
    assert violations(snippet)


def test_scan_allows_integer_math():
    assert violations("import math\ny = math.lcm(2, 3) + math.gcd(4, 6) + math.isqrt(9)") == []


SIGN_ROUTINE = "_sort_with_sign"


def sign_routine_uses(source: str) -> list[int]:
    """Lines that name the sign routine: a name, an attribute or an import."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == SIGN_ROUTINE)
            or (isinstance(node, ast.Attribute) and node.attr == SIGN_ROUTINE)
            or (isinstance(node, ast.alias) and node.name == SIGN_ROUTINE)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exterior.py"],
                         ids=lambda p: p.name)
def test_only_exterior_knows_signs(path):
    assert sign_routine_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "from .exterior import _sort_with_sign",
    "from .exterior import DIM, _sort_with_sign as s",
    "from . import exterior\nexterior._sort_with_sign((2, 1))",
    "f = _sort_with_sign",
])
def test_sign_scan_catches(snippet):
    assert sign_routine_uses(snippet)


INDEX_TABLES = {"_SUBSETS", "_INDEX", "_wedge_table"}


def index_table_definitions(source: str) -> list[str]:
    """Index tables the source defines: assigned names, defs and classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in INDEX_TABLES:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_exterior_defines_the_index_tables():
    source = (Path(msf7.__file__).parent / "exterior.py").read_text(encoding="utf-8")
    assert {d.split(": ")[1] for d in index_table_definitions(source)} == INDEX_TABLES


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exterior.py"],
                         ids=lambda p: p.name)
def test_only_exterior_defines_index_tables(path):
    assert index_table_definitions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "_SUBSETS = ()",
    "_INDEX: dict = {}",
    "_SUBSETS, x = (), 1",
    "for _INDEX in range(3):\n    pass",
    "def _wedge_table(p, q):\n    return ()",
    "from functools import cache\n@cache\ndef _wedge_table(p, q):\n    return ()",
])
def test_index_table_scan_catches(snippet):
    assert index_table_definitions(snippet)


def test_index_table_scan_allows_imports():
    assert index_table_definitions(
        "from .exterior import _INDEX, _SUBSETS, _wedge_table\nx = _SUBSETS[3]") == []


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _references(tree) -> tuple[set[str], set[str]]:
    """(names, attributes) the tree refers to: loaded or imported names, and
    the attribute part of every ``x.attr``."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def _exported(node) -> set[str]:
    """The names a module-level ``__all__ = [...]`` lists, else none."""
    if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                            for t in node.targets):
        return set(ast.literal_eval(node.value))
    return set()


def dead_definitions(package: list[str]) -> list[str]:
    """Module-level defs and classes of the package sources that no package
    source names (bare, imported or as a module attribute) outside their own
    body and no ``__all__`` exports, and non-dunder methods that no package
    source reaches as an attribute and their own class body does not name
    (``__matmul__ = compose``)."""
    trees = [ast.parse(s) for s in package]
    names, attrs = set(), set()
    for tree in trees:
        for node in tree.body:
            found = _references(node)
            names |= found[0] - ({node.name} if _is_def(node) else set()) | _exported(node)
            attrs |= found[1]
    dead = []
    for tree in trees:
        for node in filter(_is_def, tree.body):
            if node.name not in names | attrs:
                dead.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            in_class = set().union(*(_references(stmt)[0] for stmt in node.body
                                     if not _is_def(stmt)))
            dead += [f"{node.name}.{m.name}" for m in filter(_is_def, node.body)
                     if not (m.name.startswith("__") and m.name.endswith("__"))
                     and m.name not in attrs and m.name not in in_class]
    return dead


def test_every_definition_is_used():
    assert dead_definitions([p.read_text(encoding="utf-8") for p in SOURCES]) == []


@pytest.mark.parametrize("snippet", [
    "def unused():\n    return 1",
    "def recursive(n):\n    return recursive(n - 1) if n else 0",
    "class Unused:\n    pass",
    "class A:\n    def unused(self):\n        return 1\n\nA()",
    "class A:\n    def compose(self, o):\n        return o\n\n    def other(self):\n"
    "        compose = 1\n        return compose\n\nA().other()",
    "class A:\n    def m(self):\n        return 1\n\n__all__ = ['A', 'm']",
])
def test_dead_definition_scan_catches(snippet):
    assert dead_definitions([snippet])


@pytest.mark.parametrize("snippet", [
    "def f():\n    return 1\n\nx = f()",
    "class A:\n    def compose(self, o):\n        return o\n\n    __matmul__ = compose\n\nA()",
    "class A:\n    def used(self):\n        return 1\n\nA().used()",
    "def _dunder_only():\n    pass\n\nclass B:\n    def __repr__(self):\n        return ''\n\n"
    "_dunder_only(); B()",
    "def exported():\n    return 1\n\n__all__ = ['exported']",
])
def test_dead_definition_scan_allows_uses(snippet):
    assert dead_definitions([snippet]) == []


def test_dead_definition_scan_reads_the_package_only():
    """A use from another package source or an ``__all__`` keeps a
    definition; a method only the package can keep.  Only the package's own
    modules reach the scan, so the same use in a test file keeps nothing."""
    package = ["def helper():\n    pass\n\nclass A:\n    def m(self):\n        pass"]
    assert dead_definitions(package) == ["helper", "A", "A.m"]
    assert dead_definitions(package + ["from .x import A, helper\nA().m()"]) == []
    assert dead_definitions(package + ["from . import x\nx.helper(); x.A"]) == ["A.m"]
    assert dead_definitions(package + ["__all__ = ['A', 'helper']"]) == ["A.m"]


def package_imports(source: str) -> set[str]:
    """Modules of the package a source imports: ``.x`` or ``msf7.x`` as x,
    and each name of ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and not module:
                found |= {a.name for a in node.names}
            elif node.level or module.split(".")[0] == "msf7":
                found.add(module.split(".")[-1] if module != "msf7" else "msf7")
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[-1] for a in node.names
                      if a.name.split(".")[0] == "msf7"}
    return found


def test_forms7_imports_only_exterior():
    source = (Path(msf7.__file__).parent / "forms7.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"exterior"}


@pytest.mark.parametrize("snippet, modules", [
    ("from . import algebras", {"algebras"}),
    ("from .algebras import build_algebra", {"algebras"}),
    ("from msf7.topology import check_type", {"topology"}),
    ("import msf7.stabilizers", {"stabilizers"}),
    ("from msf7 import classify", {"msf7"}),
    ("import random\nfrom fractions import Fraction\nfrom .exterior import DIM", {"exterior"}),
])
def test_package_import_scan(snippet, modules):
    assert package_imports(snippet) == modules


def unused_imports(source: str) -> list[str]:
    """Names the source imports (anywhere, under the name they are bound to)
    that it never names again and no ``__all__`` lists; ``from __future__``
    imports are exempt."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        else:
            used |= _exported(node)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "import os",
    "import os.path",
    "from fractions import Fraction as F\nx = Fraction",
    "from .exterior import DIM, KForm\nx = DIM",
    "def f():\n    import json\n    return 1",
    "import os\n__all__ = ['path']",
    "from .exterior import KForm\nx = 'KForm'",
])
def test_unused_import_scan_catches(snippet):
    assert unused_imports(snippet)


@pytest.mark.parametrize("snippet", [
    "from __future__ import annotations",
    "import os.path\nos.getcwd()",
    "from .exterior import KForm\n__all__ = ['KForm']",
    "from fractions import Fraction as F\nx: F",
    "import json\n\ndef f():\n    return json.dumps(1)",
    "from .exterior import KForm\nclass A(KForm):\n    pass",
])
def test_unused_import_scan_allows_uses(snippet):
    assert unused_imports(snippet) == []
