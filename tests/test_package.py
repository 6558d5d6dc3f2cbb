"""The package surface: four names, the README's library example runs and
its options and summary tables list exactly the run options and summary
keys, no public tree method or module-level function is left without a
caller in the library, only the network writes message counts and only
the round a committee's digest count, and the oracle shares no tree code."""

import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pipechain
from pipechain.engine import RunOptions
from pipechain.merkle import PrunedTree

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(pipechain.__file__).parent


def test_package_exports_four_names():
    assert sorted(pipechain.__all__) == ["SimConfig", "SimResult", "Simulation", "report_lines"]
    for name in pipechain.__all__:
        assert getattr(pipechain, name) is not None


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    *rows, last = capsys.readouterr().out.splitlines()
    summary = json.loads(last)["summary"]
    assert summary["fatal"] is None
    assert summary["rounds_run"] == len(rows) > 0


def test_readme_options_table_lists_exactly_the_run_options():
    # an option added to or removed from RunOptions cannot leave the table stale
    text = README.read_text(encoding="utf-8")
    table = text.split("| option | type | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| (\w+) \|", table, re.M)
    assert listed == [field.name for field in fields(RunOptions)]


def _summary_keys(summary) -> list[str]:
    """A summary's keys, a plain dict's (not the config's or a Counter's)
    as `key.sub` in its place."""
    keys = []
    for key, value in summary.items():
        if type(value) is dict and key != "config":
            keys += [f"{key}.{sub}" for sub in value]
        else:
            keys.append(key)
    return keys


def test_readme_summary_table_lists_exactly_a_runs_keys():
    # a summary key added, removed or renamed cannot leave the table stale;
    # the second run has an idle fault, whose key only then appears
    text = README.read_text(encoding="utf-8")
    table = text.split("| summary key | meaning | fold of the reported rows |\n", 1)[1]
    listed = re.findall(r"^\| `([\w.]+)` \|", table.split("\n\n", 1)[0], re.M)
    config = pipechain.SimConfig(rounds=4)
    plain = pipechain.Simulation(config).run().summary
    idle = pipechain.Simulation(config, expired_injection_rate=1).run().summary
    keys = _summary_keys(plain)
    keys += [key for key in _summary_keys(idle) if key not in keys]
    assert listed == keys


def _tree_receiver(receiver, path) -> bool:
    """Whether a call's receiver is a tree: `self` inside merkle.py, or a
    name or attribute ending in `tree`."""
    if isinstance(receiver, ast.Name):
        name = receiver.id
        return name.endswith("tree") or name == "self" and path.name == "merkle.py"
    return isinstance(receiver, ast.Attribute) and receiver.attr.endswith("tree")


def test_every_public_tree_method_has_a_library_caller():
    # A method only tests call is dead code the tree must still carry.  A
    # call of `.name(...)` in the package counts only on a tree receiver, so
    # another type's method of the same name (`_LEAF_STATE.copy()`) does not.
    public = {
        name for name, value in vars(PrunedTree).items()
        if callable(value) and not name.startswith("_")
    }
    called = {
        node.func.attr
        for path in Path(pipechain.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and _tree_receiver(node.func.value, path)
    }
    assert sorted(public - called) == []


def test_every_public_function_has_a_library_caller():
    # A module-level function only tests call belongs with the tests.  The
    # package reaches its functions by bare name (defined or imported in the
    # module), so a read of that name (a call, or passing it on) counts; an
    # import alone, or an attribute of the same name (`tx.transfer`), does
    # not.  The console script's entry point is called from outside.
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    public, read = set(), set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public.update(
            f"{path.stem}:{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        )
        read.update(
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
    entry_points = set(re.findall(r'"pipechain\.(\w+:\w+)"', scripts))
    assert entry_points == {"cli:entrypoint"}
    unread = {name for name in public - entry_points if name.split(":")[1] not in read}
    assert sorted(unread) == []


def test_only_the_network_writes_message_counts():
    # One accounting rule, stated in network.py, charges every message: a
    # meter's msgs_in or msgs_out is assigned, augmented or passed by
    # keyword nowhere else in the package.
    counts = ("msgs_in", "msgs_out")
    writes = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(pipechain.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in counts
        or isinstance(node, ast.keyword) and node.arg in counts
    ]
    assert writes
    assert [write for write in writes if not write.startswith("network.py:")] == []


def _digest_writes(node, scope):
    """(enclosing qualified name, what is written) for each store to an
    attribute `hashes` under node, or `hashes=` passed by keyword."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _digest_writes(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
            if child.attr == "hashes":
                yield scope, ast.unparse(child.value)
        elif isinstance(child, ast.keyword) and child.arg == "hashes":
            yield scope, "a keyword"
        yield from _digest_writes(child, scope)


def test_only_the_round_writes_digest_counts():
    # One rule, in Simulation._round, charges every committee's digests: a
    # meter's hashes is written there and nowhere else, and every other
    # store to .hashes is a unit's own running count, itself or its tree.
    writes = [
        (f"{path.stem}{scope}", target)
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope, target in _digest_writes(ast.parse(path.read_text(encoding="utf-8")), "")
    ]
    charge = ("engine.Simulation._round", "meter")
    assert writes.count(charge) == 1
    others = [write for write in writes if write != charge]
    assert others
    assert [w for w in others if w[1] != "self" and w[1].split(".")[-1] != "tree"] == []


def test_oracle_imports_only_digest_primitives():
    # the oracle checks the tree code, so it shares none of it beyond the
    # digest primitives the README names
    path = Path(pipechain.__file__).parent / "oracle.py"
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "pipechain":
                names = sorted(a.name for a in node.names)
                imports.append((node.level, node.module, names))
        elif isinstance(node, ast.Import):
            imports.extend(
                (0, a.name, []) for a in node.names if a.name.split(".")[0] == "pipechain"
            )
    assert imports == [(1, "merkle", ["DEFAULT_DIGESTS", "leaf_digest", "node_hash"])]
    # and only the engine calls the oracle: the tree code reads its heap as
    # a plain map handed over by the engine
    importers = set()
    for module in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                prefix = node.module or ""
                names = [prefix] + [f"{prefix}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracle" for name in names):
                importers.add(module.name)
    assert importers == {"engine.py"}


def test_every_mutant_applies_exactly_once():
    # mutants/run.py replaces each catalogue entry's old text in a copy of
    # the checkout; an edit that moves or duplicates that text would leave
    # the mutant unapplied or ambiguous
    entries = [
        entry
        for path in sorted((ROOT / "mutants").glob("*.json"))
        for entry in json.loads(path.read_text(encoding="utf-8"))
    ]
    assert entries
    names = [entry["name"] for entry in entries]
    assert len(set(names)) == len(names)
    for entry in entries:
        text = (ROOT / entry["file"]).read_text(encoding="utf-8")
        assert text.count(entry["old"]) == 1, entry["name"]
        assert entry["new"] != entry["old"] and entry["test"].startswith("tests/"), entry["name"]
