"""The names ``hawk`` exports are exactly those its documented callers read.

Those callers are the README's Library use example, which imports from
``hawk``, and ``perfbench/run.py``, which reaches the package as
``hawk.<name>``. Every other name is imported from its module, so a
re-export that comes back, or a documented name that goes, fails here.
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
