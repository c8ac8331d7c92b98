"""Rules the package's own source must keep."""

import argparse
import ast
import dataclasses
import importlib
import os
import re
from pathlib import Path

import corm

SOURCES = sorted(Path(corm.__file__).resolve().parent.glob("*.py"))  # the package the tests import


def test_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/corm: {', '.join(found)}"


def test_every_exported_name_resolves():
    # a deletion that leaves its name in `__all__` breaks `from corm.x import *`
    dangling = []
    for path in SOURCES:
        name = "corm" if path.stem == "__init__" else f"corm.{path.stem}"
        module = importlib.import_module(name)
        dangling += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not dangling, f"names in __all__ that do not exist: {', '.join(dangling)}"


def test_private_attributes_read_only_through_self_or_cls():
    # a `_name` belongs to its own class: other objects use its public methods
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert not found, f"private attributes read from outside their object: {', '.join(found)}"


def _names(node: ast.AST) -> set[str]:
    """Every bare and dotted-attribute name inside `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_hand_written_json_field_specs():
    # a dataclass's type hints are the one declaration of its JSON fields
    # (`corm.schema`): no dict maps field names to (type, may be null, ...)
    def spec(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Name)
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, bool)
        )

    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)[:80]}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Dict) and any(spec(value) for value in node.values)
    ]
    assert not found, f"hand-written JSON field specs: {', '.join(found)}"


def test_policies_reached_only_through_apply_policy():
    # one update path: outside policies.py no code dispatches on a policy's
    # class or calls a policy's step; decode and replay call apply_policy
    from corm.policies import POLICIES

    classes = {cls.__name__ for cls in POLICIES.values()}
    found = []
    for path in SOURCES:
        if path.name == "policies.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
                hit = _names(node.args[1]) & classes
            elif isinstance(func, ast.Attribute) and func.attr == "step":
                receiver = _names(func.value)
                hit = receiver & classes or {n for n in receiver if "polic" in n.lower()}
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"policy reached outside apply_policy: {', '.join(found)}"


def test_importance_flags_taken_only_by_policies_and_analysis():
    # one home for the importance rule per step: a policy flags the scores it
    # is given, so decode and replay pass scores, never flags
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name not in ("policies.py", "analysis.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and "classify_important" in _names(node.func)
    ]
    assert not found, f"importance flags taken outside policies and analysis: {', '.join(found)}"


def test_positional_encodings_dispatched_only_in_positional():
    # each encoding owns its behaviour: outside positional.py code calls a
    # family's hooks and never tests which family it holds
    from corm.positional import PE_KINDS

    classes = {cls.__name__ for cls in PE_KINDS.values()}
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name != "positional.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names(node.args[1]) & classes
    ]
    assert not found, f"positional encoding tested by class: {', '.join(found)}"


def test_only_the_cache_block_assigns_a_step():
    # the cache block's `step` is the one step counter: decode and replay derive t from it
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef) and top.name == "KvCacheState":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(isinstance(t, ast.Attribute) and t.attr == "step" for t in targets):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"a step assigned outside KvCacheState: {', '.join(found)}"


def test_only_init_assigns_a_model_attribute():
    # a forward writes only its DecoderState: the model is read-only after __init__
    model = next(path for path in SOURCES if path.name == "model.py")
    cls = next(
        node for node in ast.parse(model.read_text()).body if isinstance(node, ast.ClassDef) and node.name == "ToyTransformer"
    )
    found = [
        f"model.py:{node.lineno}: {ast.unparse(node)}"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for node in ast.walk(method)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for t in ast.walk(target)
        )
    ]
    assert cls.body and not found, f"ToyTransformer attributes assigned outside __init__: {', '.join(found)}"


def test_the_cache_block_names_no_policy_state():
    # a policy keeps its per-entry state in arrays it names through
    # `KvCacheState.entry_array`; the block grows, clears and compacts them
    # without knowing any, and policies write no attribute of a block
    state = re.compile(r"\b(acc_scores|flagged_at|message|counts)\b")
    path = next(p for p in SOURCES if p.name == "policies.py")
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.ClassDef) and top.name == "KvCacheState":
            for method in (node for node in top.body if isinstance(node, ast.FunctionDef)):
                for node in ast.walk(method):
                    text = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
                    if isinstance(text, str) and (hit := state.search(text)):  # an attribute or a string
                        found.append(f"{path.name}:{node.lineno}: KvCacheState names {hit.group()!r}")
            continue
        for node in ast.walk(top):
            stores = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            if stores or isinstance(node, ast.Call) and "setattr" in _names(node.func):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"policy state outside entry_array: {', '.join(found)}"


def test_policy_strings_parsed_only_by_the_protocol():
    # a policy's size fields are its policy string: `Policy.parse` reads every
    # class's string from them, so no policy class parses its own
    path = next(p for p in SOURCES if p.name == "policies.py")
    found = [
        f"{path.name}:{node.lineno}: {top.name}.parse"
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.ClassDef) and top.name != "Policy"
        for node in top.body
        if isinstance(node, ast.FunctionDef) and node.name == "parse"
        or isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "parse" for t in node.targets)
    ]
    assert not found, f"policy classes that parse their own string: {', '.join(found)}"


def test_trace_save_and_load_list_no_header_fields():
    # TraceMeta's fields, in declaration order, are the header's: save and load
    # name only pe_kind, which the file holds as its wire id, and the fields
    # load checks before the meta exists
    from corm.trace import TraceMeta

    path = next(p for p in SOURCES if p.name == "trace.py")
    named = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name in ("save", "load"):
            named |= _names(node) | {k.arg for k in ast.walk(node) if isinstance(k, ast.keyword)}
    listed = named & {f.name for f in dataclasses.fields(TraceMeta)}
    assert listed <= {"pe_kind", "n_layers", "n_heads", "d_h"}, f"save and load name {sorted(listed)}"


def test_rows_checked_only_by_trace_construction():
    # a trace checks its rows once, when it is built, so replay and analysis
    # read them unchecked: only `AttentionTrace.__post_init__` calls the span check
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for top in tree.body
            if path.name == "trace.py" and isinstance(top, ast.ClassDef) and top.name == "AttentionTrace"
            for method in top.body
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
            for node in ast.walk(method)
        }
        found += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "_check_span" in _names(node.func) and id(node) not in allowed
        ]
    assert not found, f"rows checked outside AttentionTrace.__post_init__: {', '.join(found)}"


def test_only_replay_totals_loop_over_equal_size_runs():
    # the attention functions take a cache block's runs whole, so decode
    # makes one call of each per layer; only replay's exact totals in
    # `PolicySimulator.step` still loop over the runs
    found = []
    for path in SOURCES:
        if path.name == "attention.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for top in tree.body
            if path.name == "trace.py" and isinstance(top, ast.ClassDef) and top.name == "PolicySimulator"
            for method in top.body
            if isinstance(method, ast.FunctionDef) and method.name == "step"
            for node in ast.walk(method)
        }
        # names bound to a block's runs, e.g. `runs = cache.equal_size_runs()`
        bound = {"equal_size_runs"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and "equal_size_runs" in _names(node.value):
                pairs = [(node.targets[0], node.value)]
                if isinstance(node.value, ast.Tuple) and isinstance(node.targets[0], ast.Tuple):
                    pairs = zip(node.targets[0].elts, node.value.elts)
                bound |= {n for target, value in pairs if "equal_size_runs" in _names(value) for n in _names(target)}
        found += [
            f"{path.name}:{getattr(node, 'lineno', node.iter.lineno)}: {ast.unparse(node.iter)}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension)) and _names(node.iter) & bound and id(node) not in allowed
        ]
    assert not found, f"equal_size_runs iterated outside replay's totals: {', '.join(found)}"


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether `call` is an `open(path, mode)` whose mode may write."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and (not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+")))


def test_files_written_only_by_the_writers_and_trace_save():
    # one home for each file format: commands hand rows to `write_csv` and
    # payloads to `write_json`, and only `trace.save` writes a trace
    homes = {
        ("analysis.py", "write_csv"),
        ("analysis.py", "write_similarity_csv"),
        ("analysis.py", "write_json"),
        ("trace.py", "save"),
    }
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and (path.name, top.name) in homes
            for node in ast.walk(top)
        }
        found += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_for_writing(node) and id(node) not in allowed
        ]
    assert not found, f"files written outside the writers and trace.save: {', '.join(found)}"


def test_every_flag_overrides_a_manifest_field_or_is_parsed_by_name():
    # `_merge_manifest` sets the manifest field each flag's dest names, so a
    # flag under any other dest would be dropped unless it is parsed by name
    from corm.cli import _parser
    from corm.manifest import ExperimentManifest

    settings = {f.name for f in dataclasses.fields(ExperimentManifest)} - {"source_path"}
    parsed = {"manifest", "input", "input_format", "synthetic", "checkpoints", "command", "func"}
    parser = _parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert commands
    found = [
        f"{command}: {dest}"
        for command in commands
        for dest in vars(parser.parse_args([command]))
        if dest not in settings | parsed
    ]
    assert not found, f"flags whose dest is no manifest field: {', '.join(found)}"


def test_no_path_depends_on_the_working_directory():
    # a run directory must not depend on where the run was made: no code
    # makes a path absolute or reads the working directory
    banned = {"abspath", "realpath", "getcwd", "getcwdb"}
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _names(node.func) & banned
    ]
    assert not found, f"paths made absolute or read from the working directory: {', '.join(found)}"


def test_a_pythonpath_corm_that_is_not_imported_is_named(tmp_path):
    # the session check behind `conftest.pytest_sessionstart`
    from conftest import foreign_corm

    for tree in ("a", "b"):
        (tmp_path / tree / "corm").mkdir(parents=True)
        (tmp_path / tree / "corm" / "__init__.py").touch()
    (tmp_path / "empty").mkdir()
    imported = (tmp_path / "a" / "corm").resolve()
    entries = [str(tmp_path / "empty"), str(tmp_path / "a"), str(tmp_path / "b")]
    assert foreign_corm(os.pathsep.join(entries[:2]), imported) is None
    assert foreign_corm(os.pathsep.join(entries), imported) == (tmp_path / "b" / "corm").resolve()
    assert foreign_corm("", imported) is None


def test_every_mutant_is_one_edit_of_the_source_with_tests_that_exist(monkeypatch):
    # `tools/mutants.py` runs outside tier-1; here its list is held to what the runner needs:
    # unique names, a real edit, an old text it finds exactly once, and test files that exist
    import importlib.util
    import sys

    root = Path(__file__).resolve().parents[1]  # the checkout the runner copies `src` from
    spec = importlib.util.spec_from_file_location("mutants_under_test", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutants)  # its dataclass looks its module up while it is built
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names), f"mutant names repeat: {sorted(n for n in names if names.count(n) > 1)}"
    problems = []
    for m in mutants.MUTANTS:
        if m.old == m.new:
            problems.append(f"{m.name}: old and new text are equal")
        count = (root / "src" / "corm" / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        problems += [f"{m.name}: no test file {t}" for t in m.tests if not (root / t.split("::")[0]).is_file()]
    assert not problems, "; ".join(problems)
