"""List the functions in ``src/repro`` that a pytest run never enters.

Runs pytest in this process under a profile hook (``sys.setprofile``
plus ``threading.setprofile``, so live-cluster threads are seen too),
then prints every ``def`` in ``src/repro`` whose code no frame entered,
one ``path:line qualname`` per line, and a count.  Pool workers are
separate processes and are not traced, so a function only a
``--jobs N`` worker runs shows up here.  Arguments after ``--`` go to
pytest; the exit status is pytest's::

    PYTHONPATH=src python scripts/never_run.py -- -q -p no:cacheprovider

A function listed here is dead by evidence only if nothing outside the
traced run (a CI smoke, a benchmark, an example) calls it either.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _defs(path: Path):
    """``(first line, qualname)`` of every function defined in *path*;
    the first line is a decorated function's first decorator, as in
    ``co_firstlineno``."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found.append((first, prefix + child.name))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def main(argv) -> int:
    import pytest

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        status = pytest.main(argv)
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    total = 0
    never = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in _defs(path):
            total += 1
            if (str(path), line) not in entered:
                never.append(f"{path.relative_to(SRC.parent)}:{line} {name}")
    print("\n".join(never))
    print(f"{len(never)} of {total} functions never ran")
    return status


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(args[args.index("--") + 1:] if "--" in args else args))
