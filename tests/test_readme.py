"""README's library example runs, and every result its comments show is what it computes."""

import ast
from pathlib import Path

from defdom import Attack

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library in one minute", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_in_one_minute():
    src = _library_block()
    lines = src.splitlines()
    ns: dict = {}
    commented = []
    for node in ast.parse(src).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module(body=[node], type_ignores=[]), "README.md", "exec"), ns)
            value = ns[node.targets[0].id] if isinstance(node, ast.Assign) else None
        line = lines[node.lineno - 1]
        if "#" in line:
            commented.append((line.split("#", 1)[1].strip(), value))
    assert [c for c, _ in commented] == [
        "a 5-path",
        "[2, 3, 5]",
        "True, always",
        "False ...",
        "... at window [4..5]",
        "(3, [1, 3, 4])",
    ]
    assert [v for _, v in commented[1:]] == [[2, 3, 5], True, False, Attack(4, 5), (3, [1, 3, 4])]
    assert str(commented[4][1]) == "[4..5]"
