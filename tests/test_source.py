"""Guards on the package source itself.

Every public top-level function and class in ``src/tiltobs`` must be used
somewhere in the package: code that only the tests call is dead weight with
a test attached.  The few exceptions are independent oracles, kept on
purpose so that tests can check the program against them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tiltobs"

# public names kept for the tests alone, each with the reason it is kept
ORACLES = {
    "observer_derivative": "the continuous-time field that step_floats is tested against",
    "exponential_bound": "the paper's decay envelope, checked by acceptance criterion 7",
}


def test_every_public_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = {
        node.name: name
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(ORACLES) <= set(defined), "an oracle is no longer defined"
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used and name not in ORACLES)
    assert not unused, f"public definitions no code in src uses: {unused}"
