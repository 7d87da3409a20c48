"""Every public name has a caller in the product code.

The product is the package itself and the benchmark harness; tests and
demos do not count.  A name in ``quadrules.__all__`` that no product
module reads is dead API: delete it, or give it a caller.
"""

import ast
from pathlib import Path

import quadrules

ROOT = Path(__file__).resolve().parent.parent


def product_names():
    """Every name read, and every attribute taken, in the product code."""
    sources = [p for p in (ROOT / "src" / "quadrules").glob("*.py")
               if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_product_caller():
    used = product_names()
    assert [n for n in quadrules.__all__ if n not in used] == []
