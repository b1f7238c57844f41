"""README's Library example: it runs, and its values are the ones its
comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each bare expression of the example, with the value its comment states
STATED = {
    "cubic_residue_symbol(12, 13)": 1,
    "determinant(m)": 1,
    "determinant(m.rows())": 1,
    "table.cell(11, 0)": 10,
    "leading_minors(big)": [0, -1, 2, -3, 4],
    "formula_minors(DiffPlusC(0), 11, 5)": [0, -1, 2, -3, 4],
}


def _library_example() -> str:
    """The first python block under README's "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs_and_states_its_values():
    block = _library_example()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    lines = block.splitlines()
    found = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(block, node)
            found[source] = (eval(source, namespace), lines[node.lineno - 1].partition("#")[2].strip())
    assert {source: value for source, (value, _) in found.items()} == STATED
    # the comment of each states that value, or the list of the line before
    for source, (value, comment) in found.items():
        assert comment.startswith((repr(value), "the same list")), (source, comment)
