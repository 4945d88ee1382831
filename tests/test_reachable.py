"""Every definition in src/ is reached from an idrig command; test-side references live in tests/.

The walk is by name: a definition is reached once a reached body (or module-level
code) names it, as a bare name or as an attribute, in any module.  A name shared
by several definitions reaches them all, so the walk can only over-count.

Stored values are held to the same rule: an attribute that src/ code stores on
a named object (`self.x = ...`, `kd.x = ...`) must be read, by name, somewhere
in src/.

The modules are layered, exprlang -> mesh -> geometry -> initial_data ->
{rigidity, killing_dev} -> scene -> cli, and each imports only from earlier layers.
"""
import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idrig"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    """Every bare name and attribute name read anywhere under `nodes`."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _outside_bodies(definition):
    """What runs where `definition` is defined: its decorators, defaults and class-level code."""
    parts = list(definition.decorator_list)
    if isinstance(definition, ast.ClassDef):
        parts += definition.bases + definition.keywords
        parts += [node for node in definition.body if not isinstance(node, DEFINITIONS)]
        for method in definition.body:
            if isinstance(method, DEFINITIONS):
                parts += _outside_bodies(method)
    else:
        parts += definition.args.defaults + definition.args.kw_defaults
    return [part for part in parts if part is not None]


def definitions(sources):
    """{qualified name: (bare name, body nodes)} of the module-level functions and classes
    and of their methods, and the names module-level code reads.

    A class's body holds its dunder methods, which are reached with it.
    """
    defs, roots = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, DEFINITIONS):
                roots |= _names([node])
                continue
            roots |= _names(_outside_bodies(node))
            qualified = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, DEFINITIONS)]
                dunders = [item for item in methods
                           if item.name.startswith("__") and item.name.endswith("__")]
                defs[qualified] = (node.name, [item.body for item in dunders])
                for item in methods:
                    if item not in dunders:
                        defs[f"{qualified}.{item.name}"] = (item.name, [item.body])
            else:
                defs[qualified] = (node.name, [node.body])
    return defs, roots


def unreached(sources, entry):
    """Qualified names of the definitions that neither `entry` nor module-level code reaches."""
    defs, names = definitions(sources)
    reached = {entry}
    frontier = [entry]
    while frontier:
        for statements in defs[frontier.pop()][1]:
            names |= _names(statements)
        for qualified, (name, _) in defs.items():
            if qualified not in reached and name in names:
                reached.add(qualified)
                frontier.append(qualified)
    return sorted(set(defs) - reached)


def unread_stores(sources):
    """Each attribute stored on a named object and read nowhere, as "module:line obj.attr".

    A read is any attribute load of that name, on any object, in any module, so the
    check can only under-count.
    """
    stored, read = {}, set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name):
                stored.setdefault(node.attr, f"{module}:{node.lineno} {node.value.id}.{node.attr}")
    return sorted(where for name, where in stored.items() if name not in read)


# the layers of src/: a module imports only from earlier layers, so rigidity and
# killing_dev, which share one, do not import each other
LAYERS = (("exprlang",), ("mesh",), ("geometry",), ("initial_data",),
          ("rigidity", "killing_dev"), ("scene",), ("cli",))


def imported_modules(source):
    """The idrig modules that `source` imports, relatively or by the package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("idrig.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "idrig"):
            module = (node.module or "").removeprefix("idrig").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


def layering_faults(sources, layers=LAYERS):
    """Each "module imports name" where name is not in a layer before module's."""
    layer = {module: i for i, group in enumerate(layers) for module in group}
    return sorted(f"{module} imports {name}" for module, source in sources.items()
                  for name in imported_modules(source)
                  if layer.get(name, len(layers)) >= layer.get(module, -1))


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_walk_finds_what_no_entry_reaches():
    sources = {"a": textwrap.dedent("""
        import b

        def main():
            return b.used() + Thing().go()

        def unused():
            return b.only_from_unused()

        REGISTRY = {"x": registered}
        """), "b": textwrap.dedent("""
        def used():
            return _helper()

        def _helper():
            return 1

        def only_from_unused():
            return 2

        def registered():
            return 3

        class Thing:
            def __init__(self):
                self.v = _from_init()

            def go(self):
                return self.v

            def stale(self):
                return 0

        def _from_init():
            return 4
        """)}
    assert unreached(sources, "a.main") == ["a.unused", "b.Thing.stale", "b.only_from_unused"]


def test_the_store_check_finds_what_no_code_reads():
    sources = {"a": textwrap.dedent("""
        class Thing:
            def __init__(self, data):
                self.data = data
                self.unused = len(data)
                self.count = 0

            def bump(self):
                self.count += 1  # updated, never read back
                return self.data

        def build(kd):
            kd.result = Thing([1]).bump()
            kd.arr.flags.writeable = False  # stored on an attribute, not on a named object
            return kd.result
        """)}
    assert unread_stores(sources) == ["a:5 self.unused", "a:6 self.count"]


def test_every_attribute_src_stores_is_read():
    unread = unread_stores(package_sources())
    assert not unread, "src/ stores values that no src/ code reads:\n" + "\n".join(unread)


def test_every_src_definition_is_reached_from_the_cli():
    missing = unreached(package_sources(), "cli.main")
    assert not missing, ("src/ definitions that no idrig command reaches; move them to "
                         "tests/references.py:\n" + "\n".join(missing))


def test_no_src_module_imports_the_test_side_modules():
    for module, source in package_sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in imported:
                assert name.split(".")[-1] not in ("references", "helpers"), (module, name)


def test_the_layering_check_finds_imports_of_the_same_or_a_later_layer():
    sources = {"mesh": "from . import exprlang\n",
               "killing_dev": "from .initial_data import derived\nfrom .rigidity import f\n",
               "rigidity": "import idrig.geometry\nfrom idrig import killing_dev\n",
               "scene": "from idrig.cli import main\nimport numpy\n"}
    assert layering_faults(sources) == ["killing_dev imports rigidity",
                                        "rigidity imports killing_dev", "scene imports cli"]


def test_every_src_module_imports_only_earlier_layers():
    sources = package_sources()
    assert sorted(sources) == sorted(["__init__"] + [m for group in LAYERS for m in group])
    faults = layering_faults({module: source for module, source in sources.items()
                              if module != "__init__"})
    assert not faults, "src/ modules that import a module of their own or a later layer:\n" + (
        "\n".join(faults))
