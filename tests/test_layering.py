"""Formats stay behind the module that owns them.

The integer kernels read the working-coefficient format from `fields`:
groebner, linalg, artin, tangent, apolarity and smooth convert between field
elements and integers only through `Field.integers`, `Field.element` and
`Field.modulus`.  They read no numerator, denominator or residue of a scalar
and compare no field with Q.  linalg and upoly make no float, so every bound
they compute is exact.

A monomial order is read through its coordinates (`MonomialOrder.key`,
`monomial`, `divisor_bound`, `within`): no module but `poly` reads its kind,
weight or tiebreak.

Every module-level import of a module but `__init__`, which re-exports, is
used in it, and every local a function assigns is read.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck"

SCALAR_INTERNALS = {"numerator", "denominator", "v"}


def boundary_violations(source):
    """(line, what) of each read of a scalar internal and each comparison
    with QQ in the module source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_INTERNALS:
            out.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Name) and x.id == "QQ"
                   or isinstance(x, ast.Attribute) and x.attr == "QQ" for x in operands):
                out.append((node.lineno, "comparison with QQ"))
    return sorted(out)


@pytest.mark.parametrize("module", ["groebner", "linalg", "artin", "tangent", "apolarity",
                                    "smooth"])
def test_kernels_read_the_format_from_fields(module):
    source = (SRC / f"{module}.py").read_text()
    assert boundary_violations(source) == []


def test_boundary_scan_sees_each_violation():
    source = ("def f(x, field):\n"
              "    if field == QQ:\n"
              "        return x.numerator, x.denominator\n"
              "    if fields.QQ != field:\n"
              "        return x.v\n"
              "    return x.num, x.den, field.modulus\n")
    assert boundary_violations(source) == [
        (2, "comparison with QQ"), (3, ".denominator"), (3, ".numerator"),
        (4, "comparison with QQ"), (5, ".v")]


def test_upoly_is_integer_arithmetic():
    # Z[t] and Q(t) arithmetic runs on int coefficients alone: upoly reads no
    # scalar internal and takes nothing from scalars or fractions
    source = (SRC / "upoly.py").read_text()
    assert boundary_violations(source) == []
    tree = ast.parse(source)
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported.isdisjoint({"scalars", "fractions"})


FLOAT_NAMES = {"inf", "nan"}


def float_violations(source):
    """(line, what) of each float call, float literal and math infinity or
    NaN in the module source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            out.append((node.lineno, "float()"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, f"math.{alias.name}") for alias in node.names
                    if alias.name in FLOAT_NAMES]
    return sorted(out)


@pytest.mark.parametrize("module", ["linalg", "upoly"])
def test_exact_modules_make_no_float(module):
    assert float_violations((SRC / f"{module}.py").read_text()) == []


def test_float_scan_sees_each_violation():
    source = ("import math\n"
              "from math import gcd, inf\n"
              "def f(x):\n"
              "    if x > float('inf'):\n"
              "        return 0.5, math.inf\n"
              "    return math.nan, 1e3, x / 2, math.gcd(x, 2), x.inf\n")
    assert float_violations(source) == [
        (2, "math.inf"), (4, "float()"), (5, "float literal"), (5, "math.inf"),
        (6, "float literal"), (6, "math.nan")]


ORDER_INTERNALS = {"kind", "weight", "tiebreak"}


def order_violations(source):
    """(line, what) of each read of a monomial order's internals in the
    module source."""
    return sorted((node.lineno, f".{node.attr}") for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ORDER_INTERNALS)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "poly"))
def test_only_poly_reads_the_order_internals(module):
    source = (SRC / f"{module}.py").read_text()
    assert order_violations(source) == []


def test_order_scan_sees_each_violation():
    source = ("def f(order, m):\n"
              "    if order.kind == 'weight':\n"
              "        return order.weight, order.tiebreak\n"
              "    return order.key(m), order.within\n")
    assert order_violations(source) == [(2, ".kind"), (3, ".tiebreak"), (3, ".weight")]


def unused_imports(source):
    """(line, name) of each name a module-level import binds that the module
    source never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "__init__"))
def test_every_import_is_used(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


def test_import_scan_sees_each_unused_name():
    source = ("import random\n"
              "import os.path\n"
              "from itertools import chain, combinations\n"
              "from .upoly import zgcd as gcd_of, zval\n"
              "\n"
              "def f(rows):\n"
              "    import math\n"
              "    return combinations(rows, 2), zval(rows), os.sep\n")
    assert unused_imports(source) == [(1, "random"), (3, "chain"), (4, "gcd_of")]


def unused_locals(source):
    """(line, name) of each name a function assigns in its own scope and
    never reads there or in a function nested in it.  The placeholder `_`,
    loop targets, comprehension variables, names declared global or nonlocal
    and whatever a class body assigns are exempt."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, functions):
            continue
        assigned, exempt, read = {}, {"_"}, set()
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (*functions, ast.ClassDef)):
                # their own scopes: only what they read counts here
                read.update(n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                continue
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                exempt.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node.ctx, ast.Store):
                    assigned[node.id] = min(node.lineno, assigned.get(node.id, node.lineno))
            stack.extend(ast.iter_child_nodes(node))
        out += [(line, name) for name, line in assigned.items()
                if name not in read and name not in exempt]
    return sorted(out)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_local_is_read(module):
    assert unused_locals((SRC / f"{module}.py").read_text()) == []


def test_local_scan_sees_each_unread_name():
    source = ("def f(rows, n):\n"
              "    total, spare = 0, []\n"
              "    seen = {}\n"
              "    for i, row in enumerate(rows):\n"
              "        total += len(row)\n"
              "    size = len([x for x in rows if x])\n"
              "    def g():\n"
              "        unused = 1\n"
              "        return seen\n"
              "    class C:\n"
              "        attr = 2\n"
              "    while (k := n):\n"
              "        n -= 1\n"
              "    _, rest = rows\n"
              "    return g, C\n"
              "\n"
              "def h():\n"
              "    global cache\n"
              "    cache = 3\n"
              "    last = None\n"
              "    return lambda: last\n")
    assert unused_locals(source) == [(2, "spare"), (2, "total"), (6, "size"), (8, "unused"),
                                     (12, "k"), (14, "rest")]
