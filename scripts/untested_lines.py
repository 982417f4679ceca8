#!/usr/bin/env python3
"""List the lines of the gasadapt package that no tier-1 test executes.

Runs the tier-1 suite in this process under `sys.settrace`, recording the
lines executed in `src/gasadapt/`, and prints every executable line of the
package that was not: a line start of the compiled code of each module, as
`dis.findlinestarts` gives it. Criterion 8 is deselected, as tracing skews
its timing gate. The list only informs; the script exits 0 whatever it
finds, and says so when the suite itself failed.

Tests that run the package in a subprocess are not traced, so a line that
only they reach is listed too. Five lines are expected:

- `cli.py`: the `sys.exit(main())` of `python -m gasadapt.cli`, which
  criterion 9 runs in subprocesses, and `validate-params --network` on a
  valid network, which the fresh interpreter of `tests/test_startup.py` runs;
- `nlp.py`: the two lines of the module `__getattr__` that load scipy on
  first access, reached only in that fresh interpreter: in this process an
  `assemble` has loaded scipy first;
- `fileio.py`: `save_scenario`, which only the benchmark's tracer calls.

Usage: python3 scripts/untested_lines.py [extra pytest arguments]
The suite runs about twice as long traced as untraced.
"""

import dis
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gasadapt"


def executable_lines(path):
    """The line starts of the module at `path` and of every code object in
    it, functions and classes nested at any depth."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv):
    # the source tree, here and in the subprocesses that some tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    os.chdir(ROOT)

    hits, in_package = set(), {}

    def trace_line(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == PACKAGE
        # the call event names the def line, and line events follow
        return trace_line(frame, event, arg) if in_package[name] else None

    sys.settrace(trace_call)
    try:
        args = ["-q", "-p", "no:cacheprovider", "-k", "not criterion_8", *argv]
        status = pytest.main(args)
    finally:
        sys.settrace(None)

    ran = {}
    for name, line in hits:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            rel = path.relative_to(ROOT)
            missing.append(f"{rel}:{line}: {source[line - 1].strip()}")
    print(f"\n{len(missing)} package lines that no in-process test executes:")
    print("\n".join(missing))
    if status != 0:
        print(f"pytest exited with status {int(status)}: the list may be too long")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
