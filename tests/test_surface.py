"""Every name a module exports is used by the program: the library, the
scripts or the benchmark runner, not only by the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Exported only as references that the tests and the acceptance gate
#: compare the program against.
REFERENCES = {("ekf", "jacobian"), ("ekf", "process_noise_from_speed")}


def program_modules():
    """The parsed modules of the library, the scripts and the benchmark
    runner, by file stem; the runner's tests are left out."""
    paths = [*(ROOT / "src" / "proxmatch").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    return [(p.stem, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_loaded_by_the_program():
    modules = program_modules()
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in modules for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unused = {(stem, name) for stem, tree in modules for name in exported(tree) if name not in loaded}
    assert sorted(unused - REFERENCES) == []
