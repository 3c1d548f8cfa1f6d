"""The integer kernels read the working-coefficient format from `fields`.

groebner, linalg, artin and tangent convert between field elements and
integers only through `Field.integers`, `Field.element` and `Field.modulus`:
they read no numerator, denominator or residue of a scalar and compare no
field with Q.
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


@pytest.mark.parametrize("module", ["groebner", "linalg", "artin", "tangent"])
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
