"""Line coverage of ``src/fsglab`` under tier-1, with the stdlib tracer only.

Runs the test suite in this process under ``sys.settrace``, traces only
frames whose code lives in ``src/fsglab``, and prints, per module, the
executable lines that never ran.  Test subprocesses that start Python
(``python -m fsglab.cli``) are traced too, through a ``sitecustomize``
placed first on their ``PYTHONPATH``.  A line counts as executable when
the compiler gave it bytecode.

Exits 0 when every never-run line is one of ``EXEMPT``, 1 otherwise, and
2 when a file of ``src/fsglab`` changed during the run: the report reads
line numbers against the text each file had when the run started.
Takes several minutes (about six times plain tier-1), so it is not part of
tier-1.

    python tools/linecov.py            # whole suite
    python tools/linecov.py tests/test_graphs.py -k bridges   # pytest args
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "fsglab")

# Lines that no correct program reaches, named by module, innermost
# function and source text (so they survive edits elsewhere).
EXEMPT = {
    # balance_arrangement's guards on the matching's own invariant
    ("randomlab.py", "balance_arrangement",
     'raise AssertionError("planned swap is not friendly")'),
    ("randomlab.py", "balance_arrangement",
     'raise AssertionError("balancing swaps did not reach the balanced band")'),
    # reached only when the oracle disagrees with the fiber-count identity
    ("statespace.py", "parity_audit", "return False"),
}

# Started in every traced Python subprocess; writes its hits at exit.
_SITECUSTOMIZE = '''
import atexit, json, os, sys
_pkg = os.environ["FSGLAB_LINECOV_PKG"]
_hits = {}
def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local
def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_pkg):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _local
def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["FSGLAB_LINECOV_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({k: sorted(v) for k, v in _hits.items()}, fh)
atexit.register(_dump)
sys.settrace(_global)
'''


def sources() -> dict[str, str]:
    """The text of each module of ``src/fsglab``, by path."""
    texts = {}
    for fname in sorted(os.listdir(PKG)):
        if fname.endswith(".py"):
            path = os.path.join(PKG, fname)
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read()
    return texts


def executable_lines(path: str, text: str) -> dict[int, str]:
    """Each line of ``text``, the source of ``path``, that has bytecode,
    mapped to the qualified name of the innermost code object it belongs
    to.  Line 0, a module's entry, is no line of the text."""
    code = compile(text, path, "exec")
    owner: dict[int, str] = {}

    def walk(co, depth):
        for _, _, line in co.co_lines():
            if line and owner.get(line, (None, -1))[1] < depth:
                owner[line] = (co.co_qualname, depth)
        for const in co.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, depth + 1)

    walk(code, 0)
    return {line: name for line, (name, _) in owner.items()}


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    import pytest

    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PKG):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory() as tmp:
        sub_out = os.path.join(tmp, "hits")
        os.mkdir(sub_out)
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(_SITECUSTOMIZE)
        saved = dict(os.environ)
        os.environ.update(
            FSGLAB_LINECOV_PKG=PKG, FSGLAB_LINECOV_OUT=sub_out,
            PYTHONPATH=os.pathsep.join(
                p for p in (tmp, SRC, saved.get("PYTHONPATH")) if p))
        sys.path.insert(0, SRC)
        for mod in [m for m in sys.modules if m.split(".")[0] == "fsglab"]:
            del sys.modules[mod]  # so that module-level lines are traced
        threading.settrace(global_)
        sys.settrace(global_)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.environ.clear()
            os.environ.update(saved)
        for name in os.listdir(sub_out):
            with open(os.path.join(sub_out, name)) as fh:
                for path, lines in json.load(fh).items():
                    hits.setdefault(path, set()).update(lines)
    return int(status), hits


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    texts = sources()
    status, hits = run_traced(args or ["tests"])
    after = sources()
    changed = [path for path in sorted(texts.keys() | after.keys())
               if texts.get(path) != after.get(path)]
    if changed:
        print("changed during the run, so its line numbers are not the traced "
              "ones: " + ", ".join(os.path.relpath(p, ROOT) for p in changed),
              file=sys.stderr)
        return 2
    total = missed = unexplained = 0
    print()
    for path, source in texts.items():
        fname = os.path.basename(path)
        lines = executable_lines(path, source)
        text = source.splitlines()
        never = sorted(set(lines) - hits.get(path, set()))
        total += len(lines)
        missed += len(never)
        print(f"{fname}: {len(never)} of {len(lines)} executable lines never ran")
        for line in never:
            src = text[line - 1].strip()
            exempt = (fname, lines[line].rsplit(".", 1)[-1], src) in EXEMPT
            unexplained += not exempt
            print(f"  {line:5d} {'exempt ' if exempt else ''}{lines[line]}: {src}")
    print(f"{missed} of {total} executable lines never ran, "
          f"{unexplained} outside the exemptions; pytest exit status {status}")
    return 1 if unexplained or status else 0


if __name__ == "__main__":
    sys.exit(main())
