"""List the functions in ``src/repro`` that a pytest run never enters.

Runs pytest in this process under a profile hook (``sys.setprofile``
plus ``threading.setprofile``, so live-cluster threads are seen too),
then prints every ``def`` in ``src/repro`` whose code no frame entered,
one ``path:line qualname`` per line, and a count.  Declarations — a
function whose body, after its docstring, is only ``...``, ``pass`` or
``raise NotImplementedError`` (a protocol or base-class method) — are
listed and counted apart from code that never ran: they have no code to
run.  Pool workers are separate processes and are not traced, so a
function only a ``--jobs N`` worker runs shows up here.  Arguments after
``--`` go to pytest; the exit status is pytest's, or 3 (and no list)
when a test replaced the profile hook without restoring it::

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


#: The bodies (after the docstring) that make a function a declaration.
DECLARATION_BODIES = ([], ["..."], ["pass"], ["raise NotImplementedError"],
                      ["raise NotImplementedError()"])


def _is_declaration(function) -> bool:
    """Is *function*'s body, after its docstring, only ``...``,
    ``pass`` or ``raise NotImplementedError``?"""
    body = function.body[ast.get_docstring(function) is not None:]
    return [ast.unparse(statement) for statement in body] in DECLARATION_BODIES


def _defs(path: Path):
    """``(first line, qualname, is declaration)`` of every function
    defined in *path*; the first line is a decorated function's first
    decorator, as in ``co_firstlineno``."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found.append((first, prefix + child.name,
                              _is_declaration(child)))
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
        # A test that installed its own hook and did not put this one
        # back blinded the trace from then on: the list would be wrong.
        replaced = sys.getprofile() is not hook
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    if replaced:
        print("never_run: a test replaced the profile hook and did not "
              "restore it; the functions run after it went untraced",
              file=sys.stderr)
        return 3
    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    total = 0
    code, declarations = [], []
    for path in sorted(SRC.rglob("*.py")):
        for line, name, declaration in _defs(path):
            total += 1
            if (str(path), line) not in entered:
                entry = f"{path.relative_to(SRC.parent)}:{line} {name}"
                (declarations if declaration else code).append(entry)
    print("\n".join(code))
    print("declarations (only ..., pass or raise NotImplementedError):")
    print("\n".join(declarations))
    print(f"{len(code) + len(declarations)} of {total} functions never "
          f"ran: {len(code)} code, {len(declarations)} declarations")
    return status


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(args[args.index("--") + 1:] if "--" in args else args))
