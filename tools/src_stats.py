"""Print the size of the ``isacpilot`` package: the numbers the roadmap tracks.

For each module under ``src/isacpilot`` and in total it prints

- ``lines``: physical lines in the file;
- ``code``: lines that hold code, i.e. lines other than blanks, comments and
  docstrings (module, class and function docstrings, found with ``ast``;
  everything else is classified with ``tokenize``);
- ``long``: lines longer than ``LONG`` characters, so that a drop in code
  lines made by joining lines shows up in review;
- ``raises``: ``raise`` statements, so that input checks moving into the
  shared rules of ``errors.py`` show up in review;

followed by the number of public names that ``isacpilot/__init__.py`` binds,
those of them that no other module of the package references (names that
only tests, tools or the benchmark use), every ``np.linalg`` call site
of the package: module, enclosing function and routine, so that a second
factorization of one matrix shows up in review, and every private name that
one module imports from another (module, source, name), so that a helper
used outside the module that owns it shows up in review.

Usage: ``python3 tools/src_stats.py [package_dir]`` (default: the
``src/isacpilot`` next to this script's parent directory).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LONG = 100
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding at least one token that is not a comment or a docstring."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def raise_count(source: str) -> int:
    """``raise`` statements in ``source`` (syntax-tree nodes, so not in strings)."""
    return sum(isinstance(node, ast.Raise) for node in ast.walk(ast.parse(source)))


def public_names(init: Path) -> set:
    """Names without a leading underscore bound at the top level of ``init``."""
    names = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def unreferenced(package: Path, names: set) -> list:
    """Those of ``names`` that no module of ``package`` but ``__init__.py`` references.

    A reference is a ``Name`` or ``Attribute`` node of the syntax tree, so a
    mention in a docstring or comment does not count, nor does an import
    alone, nor a use inside the name's own top-level definition (recursion).
    """
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(top))
            refs = {n.id for n in nodes if isinstance(n, ast.Name)}
            refs |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= refs - {getattr(top, "name", None)}
    return sorted(names - used)


def linalg_calls(path: Path) -> list:
    """(enclosing function, routine) of each ``np.linalg.<routine>(...)`` or
    ``numpy.linalg.<routine>(...)`` call in ``path``, in source order.

    The enclosing function is dotted through classes and nested functions,
    ``<module>`` at the top level.
    """
    calls = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Attribute)
                and child.func.value.attr == "linalg"
                and isinstance(child.func.value.value, ast.Name)
                and child.func.value.value.id in ("np", "numpy")
            ):
                calls.append((child.lineno, ".".join(scope) or "<module>", child.func.attr))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return [(function, routine) for _, function, routine in sorted(calls)]


def private_imports(package: Path) -> list:
    """(module, source module, name) of each private name, one with a single
    leading underscore, that a module of ``package`` imports from another
    module of it (``from .source import _name`` or
    ``from <package>.source import _name``), in module and source order."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            top, _, source = node.module.partition(".")
            if node.level == 0 and top != package.name:
                continue
            source = node.module if node.level else source
            private = [a.name for a in node.names if a.name[:1] == "_" and a.name[:2] != "__"]
            found += [(path.stem, source, name) for name in private]
    return found


def main(argv: list) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "isacpilot"
    totals = [0, 0, 0, 0]
    print(f"{'module':<20}{'lines':>8}{'code':>8}{'long':>8}{'raises':>8}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        long = sum(len(line) > LONG for line in source.splitlines())
        row = [len(source.splitlines()), code_lines(source), long, raise_count(source)]
        totals = [total + value for total, value in zip(totals, row)]
        print(f"{path.name:<20}" + "".join(f"{value:>8}" for value in row))
    print(f"{'total':<20}" + "".join(f"{value:>8}" for value in totals))
    names = public_names(package / "__init__.py")
    print(f"public names in {package.name}: {len(names)}")
    unused = unreferenced(package, names)
    print(f"referenced only outside the package: {len(unused)} {' '.join(unused)}")
    sites = [(path.stem, *call) for path in sorted(package.glob("*.py")) for call in linalg_calls(path)]
    print(f"np.linalg call sites: {len(sites)}")
    for module, function, routine in sites:
        print(f"  {module}.{function}: {routine}")
    imports = private_imports(package)
    print(f"private names imported from another module: {len(imports)}")
    for module, source, name in imports:
        print(f"  {module} <- {source}.{name}")


if __name__ == "__main__":
    main(sys.argv)
