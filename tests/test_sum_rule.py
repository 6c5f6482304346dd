"""The standing sum rule: the library adds floats left to right from 0.0,
with ``tree._sum`` or an inline loop, so a sum has the same bits on every
interpreter.  It never calls the built-in ``sum``, whose float sum
compensates from Python 3.12 on, nor ``math.fsum``.  Standard library only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "anticipated_surprise"


def banned_calls(source: str) -> list[tuple[int, str]]:
    """(line, callee) of each call of ``sum``, ``fsum`` or ``math.fsum`` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("sum", "fsum"):
            found.append((node.lineno, func.id))
        elif (isinstance(func, ast.Attribute) and func.attr == "fsum"
              and isinstance(func.value, ast.Name) and func.value.id == "math"):
            found.append((node.lineno, "math.fsum"))
    return found


def test_no_module_calls_sum_or_fsum():
    assert banned_calls("a = sum(xs, 0.0)\nb = math.fsum(xs)\nc = fsum(xs)\nd = _sum(xs)\n") == [
        (1, "sum"), (2, "math.fsum"), (3, "fsum")]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: banned_calls(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}
