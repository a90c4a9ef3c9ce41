"""The package's own structure: every definition in `src/zest` is reached
by something other than the tests, and so is every experiment setting;
every module of `src/zest` and the tests uses each name it imports, and
only `sane` runs threads."""

import ast
import importlib
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

from zest import cli
from zest.pipeline import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zest"

# definitions that only tests reach today, each with the ROADMAP item that
# gives it a caller or deletes it; an entry leaves when its item lands
NO_CALLER_YET = {
    "sane.evaluate_supervised": "item 6 (run-directory telemetry)",
    "synth.bayes_oracle": "item 2 (the oracle row)",
    "numerics.grad_check": "item 3 (the graph moves to the tests)",
    "numerics.attention": "item 3 (the graph moves to the tests)",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs):
                        yield f"{module}.{node.name}.{item.name}", item


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """The names and attribute names `tree` refers to; with `strings`, its
    string literals too."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            refs[node.value] += 1
    return refs


def _uncalled() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    src_refs = sum((_references(tree) for tree in trees.values()), Counter())
    outside = sum((_references(ast.parse(path.read_text()), strings=True)
                   for path in sorted((ROOT / "bench").glob("*.py"))),
                  Counter())
    # the console script, `module:function`
    scripts = re.findall(r'^\w+ = "zest\.(\w+):(\w+)"',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    entries = {f"{module}.{name}" for module, name in scripts}
    uncalled = set()
    for module, tree in trees.items():
        for qualified, node in _definitions(tree, module):
            name = node.name
            # a definition's references to itself do not count
            elsewhere = src_refs[name] - _references(node)[name]
            if (elsewhere > 0 or outside[name] > 0 or qualified in entries
                    or (name.startswith("__") and name.endswith("__"))):
                continue
            uncalled.add(qualified)
    return uncalled


def test_every_src_definition_has_a_caller():
    uncalled = _uncalled()
    assert uncalled - set(NO_CALLER_YET) == set(), (
        "reached only by tests, or by nothing: give each a caller in src/, "
        "bench/ or the CLI, or delete it")
    # the allowlist only shrinks: an entry that gained a caller leaves it
    assert set(NO_CALLER_YET) - uncalled == set()


def test_every_import_is_used():
    # a name counts as used where it is read, on its own or as the root of
    # an attribute; `from __future__` imports set compiler flags instead
    unused = []
    paths = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                       for name in bound if name not in used]
    assert unused == [], "imported and never used: delete each import"


def test_only_sane_runs_threads():
    # the numerics primitives stay single-threaded: SANE's step splits its
    # batch between two threads in one place
    threaded = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in ("threading", "concurrent")
                   for n in names):
                threaded.add(path.stem)
    assert threaded == {"sane"}


def test_every_experiment_setting_is_set_outside_the_tests(monkeypatch):
    # a setting only tests set is a constant: a flag of `zest pipeline` or
    # a benchmark workload sets each of the others
    args = cli.build_parser().parse_args([
        "pipeline", "--outdir", "x", "--config", "c.json", "--preset", "p",
        "--profiles", "p.json", "--csv", "t.csv", "--sessions", "5",
        "--synth-seed", "1", "--n", "10", "--seeds", "2", "--seed-list", "0",
        "--num-unseen", "2", "--sane", "{}", "--cvae", "{}", "--svm", "{}",
        "--pseudo-k", "40"])
    assert None not in vars(args).values(), "give every flag"
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("harness").WORKLOADS.values()
    set_by = ({"outdir"} | set(cli._overrides_from_args(args))
              | {key for w in workloads for key in w.overrides})
    assert {f.name for f in fields(ExperimentConfig)} - set_by == set()
