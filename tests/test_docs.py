import ast
from pathlib import Path

from topoinv.errors import WorkCapExceeded

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topoinv"


def _caps():
    """(module, cap names defined at module level, cap names in the
    arguments of a `raise WorkCapExceeded(...)`) for each package module."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets
                   if isinstance(target, ast.Name) and target.id.endswith("_CAP")}
        raised = {name.id for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and getattr(node.exc.func, "id", None) == "WorkCapExceeded"
                  for name in ast.walk(node.exc)
                  if isinstance(name, ast.Name) and name.id.endswith("_CAP")}
        yield path.stem, defined, raised


def test_every_cap_is_documented():
    readme = (ROOT / "README.md").read_text()
    defined_all, raised_all = set(), set()
    for module, defined, raised in _caps():
        for name in defined:
            assert f"`{module}.{name}`" in readme, f"{module}.{name} is not in the README"
        defined_all |= defined
        raised_all |= raised
    assert raised_all and raised_all <= defined_all
    for name in raised_all:
        assert name in WorkCapExceeded.__doc__, f"{name} is not in WorkCapExceeded's docstring"


def test_package_reexports_exactly_the_module_exports():
    import types

    import topoinv
    from topoinv import equivariant, errors, gralg, invariants, parity, spaces

    exported = set().union(*(module.__all__
                             for module in (parity, gralg, spaces, invariants, equivariant)))
    errors_names = {name for name, value in vars(errors).items()
                    if isinstance(value, type) and issubclass(value, Exception)}
    public = {name for name, value in vars(topoinv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - errors_names == exported
    for module in (parity, gralg, spaces, invariants, equivariant):
        for name in module.__all__:
            assert getattr(topoinv, name) is getattr(module, name), name


def test_only_gralg_handles_packed_bytes():
    # the byte layout of a packed series is gralg's alone: elsewhere no
    # byte buffer, no int <-> bytes conversion and no host byte order
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "gralg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                assert node.id not in ("memoryview", "bytearray"), (path.name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("from_bytes", "to_bytes", "byteorder"), (
                    path.name, node.lineno)


def test_records_keep_derived_tables_in_slots():
    # a ring's derived tables are slots its constructor fills: no module
    # caches values in a per-instance __dict__
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert "cached_property" not in names, (path.name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", (path.name, node.lineno)
            elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__slots__" for target in node.targets):
                slots = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
                assert "__dict__" not in slots, (path.name, node.lineno)
