"""Static checks on the package source."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foelner"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so every runtime check in the
    # package must raise a package error instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/foelner: {found}"


def test_no_unused_imports_in_package():
    # no linter runs on the package, so an import left behind when the code
    # that used it is deleted is caught here; __init__.py only holds metadata
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports in src/foelner: {found}"


def _named(tree: ast.AST) -> set:
    """Names read, attributes taken and names imported anywhere in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_dead_top_level_names_in_package():
    # every top-level function, class and module constant is named somewhere in
    # the package besides its own definition, or is API of the acceptance suite
    acceptance = ast.parse((PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text())
    statements = [
        (path.name, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    named_by = [_named(stmt) for _, stmt in statements]
    named_elsewhere = _named(acceptance)
    dead = []
    for i, (filename, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name not in named_elsewhere and not any(name in names for j, names in enumerate(named_by) if j != i):
                dead.append(f"{filename}:{stmt.lineno} {name}")
    assert not dead, f"top-level names nothing uses in src/foelner: {dead}"


def test_no_dead_methods_in_package():
    # every method of a package class, dunders aside, is called or read by name
    # somewhere in the package or in the acceptance suite
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    acceptance = ast.parse((PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text())
    named = set().union(_named(acceptance), *map(_named, trees))
    dead = [
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__") and fn.name not in named
    ]
    assert not dead, f"methods nothing calls or reads in src/foelner: {dead}"


def test_no_private_names_imported_across_package_modules():
    # a name one package module takes from another is shared, so it is public:
    # no module imports another's underscore name (dunders such as __version__ aside)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "foelner"):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert not found, f"underscore names imported across src/foelner: {found}"


def _module_level(tree: ast.AST):
    """The nodes of `tree` that run on import: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_hashlib_import_in_package():
    # hashlib loads OpenSSL, about 3.5 MB resident; only frame_fingerprint needs it,
    # so it imports hashlib itself and start-up and the runs that take no fingerprint skip it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "hashlib"]
    assert not found, f"module-level hashlib imports in src/foelner: {found}"


def test_only_the_budget_module_defines_caps_and_bounds():
    # one admission policy: every refusal for cost goes through foelner.budget, so no
    # other module keeps a module-level *_CAP or *_BOUND of its own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "budget.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            found += [
                f"{path.name}:{stmt.lineno} {t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.endswith(("_CAP", "_BOUND"))
            ]
    assert not found, f"caps or bounds outside foelner.budget: {found}"


# What cli.py may take from the package: the version, the error types it maps to exit codes,
# the five commands' runs and what --paper-mode adds to the audit's report.
CLI_IMPORTS = {"__version__", "ConvergenceError", "InvariantViolation", "PreconditionError", "group_run", "witness_run",
               "scan_run", "audit", "identity_check", "THRESHOLD_NOTE", "make_paper_trace"}


def test_cli_imports_only_the_runs_from_the_package():
    # the library checks, charges and computes every run: the CLI parses arguments, makes one
    # library call per command and writes its report, so it imports no budget, numpy or
    # estimator, and no module outside the package but the standard library.  The walk covers
    # the whole module, the imports in the command handlers as well as the module level.
    taken, outside = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "foelner"):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
    assert taken == CLI_IMPORTS, f"cli.py takes {sorted(taken ^ CLI_IMPORTS)} other than CLI_IMPORTS says"
    assert outside <= sys.stdlib_module_names, f"cli.py imports {sorted(outside - sys.stdlib_module_names)}"


def test_cli_module_level_takes_only_the_version_and_the_error_types():
    # a command's run module, and numpy with it, loads in the command's handler, so --version,
    # --help and argparse's refusals load no run module and no numpy
    taken = {
        alias.name
        for node in _module_level(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "foelner")
        for alias in node.names
    }
    allowed = {"__version__", "ConvergenceError", "InvariantViolation", "PreconditionError"}
    assert taken <= allowed, f"cli.py's module level takes {sorted(taken - allowed)} from the package"


def test_cli_sets_the_blas_idle_spin_before_numpy_loads():
    # OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it: every package module but
    # errors and budget imports numpy, directly or through words, and cli.py imports a command's
    # run module (so numpy) in the command's handler; it sets the variable at module level, before
    # each of its own `from .<module> import`s, so before any handler runs
    body = ast.parse((PACKAGE / "cli.py").read_text()).body
    sets = [stmt.lineno for stmt in body if "setdefault('OPENBLAS_THREAD_TIMEOUT'" in ast.unparse(stmt)]
    imports = [stmt.lineno for stmt in body if isinstance(stmt, ast.ImportFrom) and stmt.level and stmt.module]
    assert len(sets) == 1 and imports, (sets, imports)
    assert sets[0] < min(imports), f"cli.py:{sets[0]} sets OPENBLAS_THREAD_TIMEOUT after cli.py:{min(imports)} imports"


# The lines of src/foelner/*.py (as `wc -l` counts them) at the last change that
# set this limit; a change that raises it says so, and why, in CHANGES.md.
SOURCE_LINE_LIMIT = 2257


def test_package_line_count_does_not_grow():
    lines = sum(path.read_text().count("\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SOURCE_LINE_LIMIT, f"src/foelner has {lines} lines > the limit of {SOURCE_LINE_LIMIT}"
