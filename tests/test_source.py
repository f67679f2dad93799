"""Guards on the package source itself.

Every public top-level function, class and assignment (a constant, or a
``partial`` such as ``so3.rotate_twice_arrays``) in ``src/tiltobs`` must be
read somewhere in the package: code that only the tests call is dead weight
with a test attached, and a constant that no code reads is a setting that
sets nothing.  The few exceptions are independent oracles, kept on purpose so
that tests can check the program against them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tiltobs"

# public names kept for the tests alone, each with the reason it is kept
ORACLES = {
    "observer_derivative": "the continuous-time field that step_floats is tested against",
    "exponential_bound": "the paper's decay envelope, checked by acceptance criterion 7",
}


def assigned_names(node):
    """Names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                yield name.id


def test_every_public_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = module
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined.update(dict.fromkeys(assigned_names(node), module))
    defined = {name: module for name, module in defined.items() if not name.startswith("_")}
    # only reads count: an assignment's own target is not a use
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert set(ORACLES) <= set(defined), "an oracle is no longer defined"
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used and name not in ORACLES)
    assert not unused, f"public definitions no code in src uses: {unused}"
