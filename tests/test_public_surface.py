"""Static guard on the package's public surface.

Four properties, checked on the source with ``ast`` (nothing is imported):

* the package root binds only the error classes and ``__version__``;
* every top-level public function, class or constant of ``src/vortexbsde``
  is used by the package itself (outside its own definition), by
  ``scripts/`` or by ``perfbench/`` -- or is one of the names the
  acceptance gate exercises directly;
* each of those acceptance-gate names is defined in the package and has
  no such caller, so the list cannot go stale;
* no module-level import in the package is unused.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexbsde"

ROOT_EXPORTS = {
    "ConfigurationError",
    "DomainError",
    "NonConvergenceError",
    "NumericalError",
    "VortexError",
    "__version__",
}

#: Public names that only tests/test_acceptance.py calls: the operator
#: identities, and the Brownian path and the pathwise residual of
#: criterion 8.  Each must be defined in the package and have no caller
#: there or in ``scripts/`` or ``perfbench/``, or it does not belong here.
ACCEPTANCE_GATE_NAMES = {
    "curl",
    "divergence",
    "verify_elliptic_estimates",
    "simulate",
    "bsde_residual_profile",
}

#: Imported for its side of an interface rather than for use in the module:
#: perfbench/spans.py wraps ``cli.translate`` to time the compare command.
IMPORTS_KEPT_AS_INTERFACE = {("cli", "translate")}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _package_modules() -> dict:
    """Parsed modules by name, without the package root (a re-export is no use)."""
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def _names_used(node) -> set:
    """Identifiers read under ``node``: names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _top_level_definitions(tree: ast.Module):
    """(name, node) for each top-level def, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _imports(tree: ast.Module) -> dict:
    """Module-level import statements by the name each one binds."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
            getattr(node, "module", None) != "__future__"
        ):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node
    return out


def test_package_root_exports_only_errors():
    tree = _parse(PACKAGE / "__init__.py")
    bound = set(_imports(tree)) | {name for name, _ in _top_level_definitions(tree)}
    assert bound == ROOT_EXPORTS


def _public_definitions() -> dict:
    """Whether each top-level public name of the package has a caller in the
    package (outside its own definition), in ``scripts/`` or in ``perfbench/``."""
    modules = _package_modules()
    uses = [(node, _names_used(node)) for tree in modules.values() for node in tree.body]
    outside = set()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _names_used(_parse(path))
    return {
        f"{mod_name}.{name}": name in outside
        or any(name in names for other, names in uses if other is not node)
        for mod_name, tree in modules.items()
        for name, node in _top_level_definitions(tree)
        if not name.startswith("_")
    }


def test_every_public_name_has_a_caller():
    uncalled = [
        qualified
        for qualified, called in _public_definitions().items()
        if not (called or qualified.split(".")[1] in ACCEPTANCE_GATE_NAMES)
    ]
    assert uncalled == []


def test_acceptance_gate_names_are_defined_and_uncalled():
    called = {q.split(".")[1]: c for q, c in _public_definitions().items()}
    stale = sorted(name for name in ACCEPTANCE_GATE_NAMES if called.get(name, True))
    assert stale == []


def test_no_unused_module_level_import():
    unused = []
    for mod_name, tree in _package_modules().items():
        imports = _imports(tree)
        used = set()
        for node in tree.body:
            if node not in imports.values():
                used |= _names_used(node)
        unused += [
            f"{mod_name}.{name}"
            for name in imports
            if name not in used and (mod_name, name) not in IMPORTS_KEPT_AS_INTERFACE
        ]
    assert unused == []
