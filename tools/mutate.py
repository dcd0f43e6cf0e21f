"""Mutation probe: flip one operator at a time in ``src/arspec`` and check
that the tests fail.

    python tools/mutate.py [--diff REV] [--file PATH]...

Each mutant swaps one operator token for its partner: ``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*`` and ``/``, in a
comparison, a binary operation or an augmented assignment. Every module of
``src/arspec`` but ``__init__.py`` and ``errors.py`` is mutated, or only
the modules given with ``--file``; with ``--diff REV``, only their lines
changed since the git revision ``REV``. An operator inside an f-string is
skipped, with a note on stderr, where the tokenizer keeps the string whole
(Python before 3.12).

The tool copies the working tree into a temporary directory, checks that
the unmutated copy passes, then runs ``python -m pytest -x -q tests`` in
the copy once per mutant. A mutant is killed when the run fails or takes
longer than three times the clean run (at least 60 s), and survives when
it passes.
``tools/equivalent_mutants.json`` lists the mutants that cannot change
behaviour, each with its reason; they are reported but not run. The exit
status is 1 if any other mutant survives. Needs only the standard library,
git and pytest.
"""

import argparse
import ast
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/arspec"
SKIPPED = ("__init__.py", "errors.py")
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.json")

#: Each operator token and the token it is flipped to.
FLIPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*",
    "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}


def _operator_spans(tree):
    """``(operator token, left operand, right operand)`` of every flippable
    operator of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in SYMBOLS:
                    yield SYMBOLS[type(op)], left, right
        elif isinstance(node, ast.BinOp) and type(node.op) in SYMBOLS:
            yield SYMBOLS[type(node.op)], node.left, node.right
        elif isinstance(node, ast.AugAssign) and type(node.op) in SYMBOLS:
            yield SYMBOLS[type(node.op)] + "=", node.target, node.value


def sites(path: Path, lines: set | None = None) -> list:
    """``(line, column, end column, token)`` of each operator of ``path``,
    columns in characters, optionally only those on ``lines``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    ops = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type == tokenize.OP]

    def chars(line: int, byte_col: int) -> tuple:
        return line, len(source[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    found = set()
    for symbol, left, right in _operator_spans(ast.parse(text)):
        after = chars(left.end_lineno, left.end_col_offset)
        before = chars(right.lineno, right.col_offset)
        tokens = [t for t in ops if t.string == symbol and after <= t.start and t.end <= before]
        if len(tokens) != 1:  # inside an f-string, which older tokenizers keep whole
            print(f"skipped {path}:{after[0]}: {symbol!r} is no token of its own", file=sys.stderr)
            continue
        (line, col), (_, end) = tokens[0].start, tokens[0].end
        if lines is None or line in lines:
            found.add((line, col, end, symbol))
    return sorted(found)


def changed_lines(rev: str) -> dict:
    """``{path: set of line numbers}`` of the lines under ``src/arspec`` that
    differ from ``rev`` in the working tree."""
    diff = subprocess.run(
        ["git", "diff", "-U0", rev, "--", PACKAGE], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout
    changed, path = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = None if line == "+++ /dev/null" else line[len("+++ b/"):]
        elif line.startswith("@@") and path:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            count = 1 if count is None else int(count)
            changed.setdefault(path, set()).update(range(int(start), int(start) + count))
    return changed


def _pytest(work: Path, timeout: float | None) -> tuple:
    """``(return code or None on timeout, seconds, first failing test)`` of
    one test run in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout.decode(errors="replace"), re.M)
    return done.returncode, time.perf_counter() - start, failed[1] if failed else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="REV", help="mutate only the lines changed since REV")
    parser.add_argument(
        "--file", action="append", help="mutate only this module, a path from the checkout root"
    )
    args = parser.parse_args(argv)

    if args.diff:
        targets = {ROOT / p: lines for p, lines in sorted(changed_lines(args.diff).items())}
    else:
        targets = {p: None for p in sorted((ROOT / PACKAGE).glob("*.py")) if p.name not in SKIPPED}
    if args.file:
        chosen = {(ROOT / f).resolve() for f in args.file}
        targets = {p: lines for p, lines in targets.items() if p in chosen}
    equivalent = {
        (e["file"], e["line"], e["mutation"]): e["reason"]
        for e in json.loads(EQUIVALENT.read_text(encoding="utf-8"))
    }
    mutants = []
    for path, lines in targets.items():
        if path.suffix == ".py" and path.exists():
            source = path.read_text(encoding="utf-8").splitlines(keepends=True)
            for line, col, end, symbol in sites(path, lines):
                rel = str(path.relative_to(ROOT))
                key = (rel, source[line - 1].strip(), f"{symbol} -> {FLIPS[symbol]}")
                mutants.append((rel, line, col, end, symbol, key))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "tree"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, work, ignore=skip)
        code, clean, _ = _pytest(work, None)
        if code != 0:
            print(f"the unmutated tree fails its tests (exit {code})", file=sys.stderr)
            return 2
        timeout = max(60.0, 3.0 * clean)
        print(f"clean run {clean:.1f} s; {len(mutants)} mutants", flush=True)
        survivors = killed = 0
        for rel, line, col, end, symbol, key in mutants:
            where = f"{rel}:{line}:{col + 1}: {key[2]}"
            if key in equivalent:
                print(f"equivalent {where}  ({equivalent[key]})", flush=True)
                continue
            target = work / rel
            original = target.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            lines[line - 1] = lines[line - 1][:col] + FLIPS[symbol] + lines[line - 1][end:]
            target.write_text("".join(lines), encoding="utf-8")
            try:
                code, seconds, failed = _pytest(work, timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            if code == 5:
                raise RuntimeError("pytest collected no tests")
            verdict = "survived" if code == 0 else "timeout" if code is None else "killed"
            survivors += code == 0
            killed += code != 0
            print(f"{verdict:10} {where}  ({seconds:.1f} s) {failed}".rstrip(), flush=True)
    print(f"score: {killed} killed of {killed + survivors} non-equivalent mutants")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
