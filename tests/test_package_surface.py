"""The names ``hawk`` exports are exactly those its documented callers read.

Those callers are the README's Library use example, which imports from
``hawk``, and ``perfbench/run.py``, which reaches the package as
``hawk.<name>``. Every other name is imported from its module, so a
re-export that comes back, or a documented name that goes, fails here.
So does a public function, class or method of ``src/hawk`` that nothing in
the package, ``perfbench`` or ``tools`` reads, since only tests would.
"""

import ast
import inspect
import pkgutil
from pathlib import Path

import hawk
from test_benchmark_hooks import _dotted  # the parse of ``test_run_uses_only_existing_names``

ROOT = Path(__file__).resolve().parent.parent


def _readme_names() -> set[str]:
    """The names that the README's Library use example imports from ``hawk``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    return {alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "hawk"
            for alias in node.names}


def _run_names() -> set[str]:
    """The ``X`` of every ``hawk.X`` (also ``self.hawk.X``) in ``perfbench/run.py``
    that is neither a submodule nor a dunder."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = _dotted(node)
        if chain[:2] == ["self", "hawk"]:
            chain = chain[1:]
        if chain[0] == "hawk" and len(chain) > 1 and not chain[1].startswith("__"):
            names.add(chain[1])
    return names - {module.name for module in pkgutil.iter_modules(hawk.__path__)}


def test_public_names_are_the_documented_ones():
    public = {name for name, value in vars(hawk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == _readme_names() | _run_names()


def test_both_callers_are_read():
    # Guards the parsers: an empty parse would pass the test above for less.
    assert {"GridSpec", "decode_image", "BatchResult"} <= _readme_names()
    assert {"decode_batch", "held_out_nll", "enumerate_joint"} <= _run_names()


# Read only by tests: the enumerating oracle's walk over every draw outcome,
# which the exact gates run and no command needs.
TEST_ONLY = {"enumerate_draws"}


def _defined(tree: ast.Module) -> set[str]:
    """The public top-level functions and classes of a module, and the public
    methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    return names


def _read(paths) -> set[str]:
    """Every name read as a ``Name`` or as an ``Attribute``'s attribute in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_code_only_tests_read():
    sources = sorted((ROOT / "src" / "hawk").glob("*.py"))
    defined = set().union(*(_defined(ast.parse(p.read_text(encoding="utf-8"))) for p in sources))
    callers = [*sources, *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    assert defined - _read(callers) == TEST_ONLY
