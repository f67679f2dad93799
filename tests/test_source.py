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


# file-system calls that write or open a file or make a directory
WRITES = {"write_text", "write_bytes", "mkdir", "open"}


def test_only_the_cli_writes_files():
    # commands return their files as text, and cli.main alone writes them
    # once the command has succeeded; reading (load_config's read_text) is free
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in WRITES:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert [call for call in calls if not call.startswith("cli.py:")] == []
    assert calls, "the guard found no write in cli.py, so it may look for the wrong names"


def test_one_function_joins_csv_fields():
    # one CSV format: harness.csv_text is the only function that joins fields with ","
    joins = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for function in functions:
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
                        and node.func.value.value == ","):
                    joins.append(f"{path.name}: {function.name}")
    assert sorted(set(joins)) == ["harness.py: csv_text"]


def test_a_failing_property_does_not_end_the_run(pytester):
    # under the project's own warning filters, a failing Hypothesis property
    # is one failed test, and the tests after it still run
    pytester.makepyprojecttoml((SRC.parents[1] / "pyproject.toml").read_text())
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    pytester.runpytest_subprocess("-p", "no:cacheprovider", path).assert_outcomes(failed=1, passed=1)
