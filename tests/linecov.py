"""Line coverage of the package by tier-1, without a coverage package.

Runs tier-1 in this process under ``sys.settrace``, tracing only the code
under src/etacheck, and prints, per file, each statement that no test
executed.  A statement counts when it compiles to code (a docstring does
not) and its first line ran.  Tests that run the
CLI or the benchmark as a subprocess are not traced, so a statement that
only they reach is listed too.  Tracing of a code object stops once every
statement in it has run.  Apart from pytest, which runs the suite, it uses
only the standard library; pytest does not collect it.

``ALLOWED`` lists the statements no tier-1 run can execute, each with its
reason.  The script exits 1 when a statement outside that list goes
unexecuted or an entry of the list names no statement, and with pytest's
status when a test fails, so over the whole of tier-1 it is a gate.

    python3 tests/linecov.py              # tier-1, 85-115 s on a 2-core host
    python3 tests/linecov.py -k basis     # further arguments go to pytest
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "etacheck"

# (file, statement text, reason): the statements no tier-1 run can execute
ALLOWED = (
    ("cli.py", "sys.exit(main())",
     "the __main__ guard; tests run it only in a subprocess, which is not traced"),
    ("series.py", "_decimal = None",
     "_libmpdec's fallback for a CPython built without _decimal"),
)


def _statements(path: Path) -> dict:
    """{(qualname, first line) of a code object: {line: statement text}} for
    the statements of path that compile to code, each under the function,
    class or module whose body holds it."""
    text = path.read_text()
    source = text.splitlines()
    compiled, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        compiled.update(line for _, _, line in code.co_lines())
    out = {}

    def walk(node, key, prefix):
        if isinstance(node, ast.stmt) and node.lineno in compiled:
            out.setdefault(key, {})[node.lineno] = source[node.lineno - 1].strip()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            first = min(n.lineno for n in (node, *node.decorator_list))
            inner = name + ("." if isinstance(node, ast.ClassDef) else ".<locals>.")
            for child in node.body:
                walk(child, (name, first), inner)
        else:
            for child in ast.iter_child_nodes(node):
                walk(child, key, prefix)

    walk(ast.parse(text), ("<module>", 1), "")
    return out


def main(argv: list) -> int:
    import pytest

    files = {str(p): _statements(p) for p in sorted(PKG.glob("*.py"))}
    # the statements of each code object that have not run yet
    pending = {(name, key): set(lines) for name, per_code in files.items()
               for key, lines in per_code.items()}

    def trace(frame, event, arg):
        code = frame.f_code
        todo = pending.get((code.co_filename, (code.co_qualname, code.co_firstlineno)))
        if not todo:
            return None

        def line(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
                if not todo:
                    frame.f_trace_lines = False
            return line

        return line

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    total = missed = 0
    allowed = {(file, text): reason for file, text, reason in ALLOWED}
    unused = set(allowed)
    for name, per_code in files.items():
        lines = {n: text for stmts in per_code.values() for n, text in stmts.items()}
        total += len(lines)
        left = sorted(n for key in per_code for n in pending[(name, key)])
        unused -= {(Path(name).name, text) for text in lines.values()}
        if left:
            print(f"\n{Path(name).relative_to(ROOT)}: {len(left)} of {len(lines)} "
                  "statements not executed")
            for n in left:
                reason = allowed.get((Path(name).name, lines[n]))
                missed += reason is None
                print(f"  {n:4d}  {lines[n]}" + (f"  (allowed: {reason})" if reason else ""))
    for file, text in sorted(unused):
        print(f"\nallowed statement {text!r} of {file} no longer exists")
    print(f"\n{total - missed} of {total} statements executed or allowed; tests that run "
          "the CLI or the benchmark as a subprocess are not traced")
    return int(status) or int(bool(missed or unused))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
