"""Every name a package module imports is read somewhere in that module,
every module-level private function or class is read somewhere in the
package, every public one is reached by code that runs, every public
method or property of a public class is read by code that runs, every parameter
with a default of a public function is bound by some call in code that
runs, and each module defines at most one exception class that no
``except`` clause names.  ``import randx.cli`` loads none of the modules in
``HEAVY_MODULES``, whose import costs set-up time or resident memory.  Only
``devicemodel`` writes JSON text: no other module calls ``json.dump``, or
``json.dumps`` with an indent.

No lint tool ships with the package, so these are its guards against dead
imports and dead code.  ``__init__.py`` is skipped for imports: its imports
are the public exports.
"""

import ast
import builtins
import itertools
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randx"
# code outside the package that runs it: the scripts and the benchmark harness
CALLERS = ("scripts", "perfbench")
# modules the CLI must not load: concurrent.futures costs about 7 ms of
# import, numpy.ma about 1.2 MB of resident memory
HEAVY_MODULES = ("concurrent.futures", "multiprocessing", "numpy.ma")


def test_cli_import_loads_no_heavy_module():
    # a fresh interpreter, so that modules the tests themselves import do not count
    code = "import sys, randx.cli; print(' '.join(m for m in sys.argv[1:] if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, *HEAVY_MODULES],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def unused_imports(path: Path) -> list[str]:
    """Names an import binds in the module at path that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def names_read(tree: ast.AST) -> set[str]:
    """Every name, and every attribute name, that an expression in tree reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions and classes whose names start with one underscore."""
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    defined = {name: private_definitions(tree) for name, tree in trees.items()}
    assert sum(len(names) for names in defined.values()) >= 80
    unread = {name: [d for d in names if d not in read] for name, names in defined.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def public_definitions(tree: ast.Module) -> list[ast.stmt]:
    """The module-level function and class nodes whose names have no leading underscore."""
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unreached_public(trees: dict[str, ast.Module], callers: set[str]) -> dict[str, list[str]]:
    """Per module, the public definitions that no other package module, no
    other statement of its own module, no name in ``callers`` and no export
    of ``__init__.py`` reads."""
    exports = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # the names each module-level statement reads, per module
    reads = {name: [names_read(node) for node in tree.body] for name, tree in trees.items()}
    unreached = {}
    for name, tree in trees.items():
        others = (r for other, rs in reads.items() if other != name for r in rs)
        elsewhere = (callers | exports).union(*others)
        for node in public_definitions(tree):
            own = (r for n, r in zip(tree.body, reads[name]) if n is not node)
            if node.name not in elsewhere and not any(node.name in r for r in own):
                unreached.setdefault(name, []).append(node.name)
    return unreached


def package_trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def caller_reads() -> set[str]:
    paths = sorted(p for d in CALLERS for p in (ROOT / d).glob("*.py"))
    assert paths
    return set().union(*(names_read(ast.parse(p.read_text(), filename=str(p))) for p in paths))


def test_every_public_definition_is_reached():
    trees = package_trees()
    assert sum(len(public_definitions(tree)) for tree in trees.values()) >= 100
    assert unreached_public(trees, caller_reads()) == {}


def test_public_guard_flags_an_unread_definition():
    trees = package_trees()
    callers = caller_reads()
    for name in trees:
        if name == "__init__.py":
            continue
        probe = ast.parse((SRC / name).read_text() + "\n\ndef unread_probe():\n    pass\n")
        assert unreached_public({**trees, name: probe}, callers) == {name: ["unread_probe"]}


def public_members(tree: ast.Module) -> list[str]:
    """``Class.member`` for each public method and property of each public
    class.  Dataclass fields are not members here: ``vars`` reads them."""
    return [
        f"{node.name}.{item.name}"
        for node in public_definitions(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def unread_members(trees: dict[str, ast.Module], callers: set[str]) -> dict[str, list[str]]:
    """Per module, the public members of its public classes whose name no
    expression in the package and no name in ``callers`` reads."""
    read = callers.union(*map(names_read, trees.values()))
    unread = {}
    for name, tree in trees.items():
        for member in public_members(tree):
            if member.partition(".")[2] not in read:
                unread.setdefault(name, []).append(member)
    return unread


def test_every_public_member_is_read():
    trees = package_trees()
    assert sum(len(public_members(tree)) for tree in trees.values()) >= 15
    assert unread_members(trees, caller_reads()) == {}


def test_member_guard_flags_an_unread_member():
    trees = package_trees()
    callers = caller_reads()
    probe = "\n\nclass Probe:\n    @property\n    def unread_probe(self):\n        pass\n"
    for name in trees:
        tree = ast.parse((SRC / name).read_text() + probe)
        assert unread_members({**trees, name: tree}, callers) == {name: ["Probe.unread_probe"]}


def defaulted_parameters(tree: ast.Module) -> dict[str, list[tuple[str, int | None]]]:
    """Each public module-level function with its parameters that have a
    default, as (name, position), the position None for a keyword-only one."""
    found = {}
    for node in public_definitions(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)  # defaults fill the last positions
            params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            if params:
                found[node.name] = params
    return found


def bound_parameters(trees: list[ast.AST]) -> set[tuple[str, str]]:
    """(function, parameter) pairs that a call in ``trees`` binds, the function
    named by the call's name or attribute: by keyword (``**`` binds any), or
    by position as (function, "#k") for each position k a positional
    argument fills (a ``*`` argument fills all)."""
    bound = set()
    for call in (n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)):
        fn = call.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            bound.add((name, "*"))
        bound.update((name, f"#{k}") for k in range(len(call.args)))
        bound.update((name, k.arg) for k in call.keywords if k.arg is not None)
    return bound


def unbound_defaults(trees: dict[str, ast.Module], callers: list[ast.AST]) -> dict[str, list[str]]:
    """Per module, ``function(parameter)`` for each defaulted parameter of a
    public function that no call in the package or in ``callers`` binds."""
    bound = bound_parameters([*trees.values(), *callers])
    unbound = {}
    for name, tree in trees.items():
        for fn, params in defaulted_parameters(tree).items():
            for param, pos in params:
                keys = {(fn, param), (fn, "*")} | ({(fn, f"#{pos}")} if pos is not None else set())
                if not keys & bound:
                    unbound.setdefault(name, []).append(f"{fn}({param})")
    return unbound


def caller_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(), filename=str(p))
            for d in CALLERS for p in sorted((ROOT / d).glob("*.py"))]


def test_every_default_is_bound_by_a_call():
    trees = package_trees()
    assert sum(len(defaulted_parameters(t)) for t in trees.values()) >= 10
    assert unbound_defaults(trees, caller_trees()) == {}


def test_default_guard_flags_an_unbound_parameter():
    trees = package_trees()
    callers = caller_trees()
    probe = "\n\ndef unbound_probe(x, y=1, *, z=2):\n    return x\n\n\n"
    # the probe and the call that binds its defaults, or not, in every module
    calls = {
        "unbound_probe(0)": ["unbound_probe(y)", "unbound_probe(z)"],
        "unbound_probe(0, 1)": ["unbound_probe(z)"],
        "unbound_probe(0, y=1, z=2)": [],
        "unbound_probe(*[0, 1], z=2)": [],
    }
    for name, (call, expected) in zip(trees, itertools.cycle(calls.items())):
        text = (SRC / name).read_text() + probe + call + "\n"
        found = unbound_defaults({**trees, name: ast.parse(text)}, callers)
        assert found == ({name: expected} if expected else {}), (name, call)


def exception_classes(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module, its module-level classes that derive from a builtin
    exception, directly or through other classes found here."""
    known = {
        n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    found: dict[str, list[str]] = {}
    grew = True
    while grew:
        grew = False
        for name, tree in trees.items():
            for node in tree.body:
                if (isinstance(node, ast.ClassDef) and node.name not in found.get(name, [])
                        and set().union(*map(names_read, node.bases)) & known):
                    known.add(node.name)
                    found.setdefault(name, []).append(node.name)
                    grew = True
    return found


def names_caught(tree: ast.AST) -> set[str]:
    """Every name, and every attribute name, in the type of an except clause of tree."""
    return set().union(*(
        names_read(h.type) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type
    ))


def uncaught_surplus(trees: dict[str, ast.Module], caught: set[str]) -> dict[str, list[str]]:
    """The modules that define more than one exception class not in ``caught``,
    each with those classes."""
    surplus = {}
    for name, classes in exception_classes(trees).items():
        if len(uncaught := [c for c in classes if c not in caught]) > 1:
            surplus[name] = uncaught
    return surplus


def caught_in_package_and_scripts(trees: dict[str, ast.Module]) -> set[str]:
    paths = sorted((ROOT / "scripts").glob("*.py"))
    scripts = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    assert scripts
    return set().union(*map(names_caught, [*trees.values(), *scripts]))


def test_one_uncaught_exception_class_per_module():
    trees = package_trees()
    assert sum(len(c) for c in exception_classes(trees).values()) >= 9
    assert uncaught_surplus(trees, caught_in_package_and_scripts(trees)) == {}


def test_error_guard_flags_a_second_exception_class():
    trees = package_trees()
    caught = caught_in_package_and_scripts(trees)
    classes = exception_classes(trees)
    for name in trees:
        uncaught = [c for c in classes.get(name, []) if c not in caught]
        base = (classes.get(name) or ["ValueError"])[0]
        probe = ast.parse((SRC / name).read_text() + f"\n\nclass ProbeError({base}):\n    pass\n")
        expected = {name: [*uncaught, "ProbeError"]} if uncaught else {}
        assert uncaught_surplus({**trees, name: probe}, caught) == expected


# the one module whose code writes JSON text: every other module writes through its json_write
JSON_WRITER = "devicemodel.py"


def json_writes(tree: ast.AST) -> list[str]:
    """Each ``json.dump`` call, and each ``json.dumps`` call with an
    ``indent`` (or ``**`` keywords, which may hold one), in tree, as
    "json.<name> (line n)"."""
    return [
        f"json.{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and (node.func.attr == "dump"
             or node.func.attr == "dumps"
             and any(k.arg in ("indent", None) for k in node.keywords))
    ]


def stray_json_writes(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module other than ``JSON_WRITER``, its ``json_writes``."""
    found = {name: json_writes(tree) for name, tree in trees.items() if name != JSON_WRITER}
    return {name: calls for name, calls in found.items() if calls}


def test_one_module_writes_json_text():
    trees = package_trees()
    assert JSON_WRITER in trees
    assert stray_json_writes(trees) == {}


def test_json_guard_flags_a_second_writer():
    trees = package_trees()
    probe = ("\n\ndef write_probe(obj, fh):\n    json.dump(obj, fh)\n"
             "    json.dumps(obj)\n    return json.dumps(obj, sort_keys=True, indent=2)\n")
    for name in trees:
        text = (SRC / name).read_text() + probe
        end = len(text.splitlines())  # the probe's last line
        found = stray_json_writes({**trees, name: ast.parse(text)})
        expected = [f"json.dump (line {end - 2})", f"json.dumps (line {end})"]
        assert found == ({} if name == JSON_WRITER else {name: expected}), name
