"""Static checks on the package source: no unused imports, no module
constant that nothing reads, no top-level function or class that nothing
references, the shared constants each defined in exactly one place, no
name of the test oracles (tests/oracles.py) defined in or imported by the
package, the signal mix and the latch chain each written once (and no
steady-state grid in dynamics), one trend table, one study-kind table,
one circular pump fraction, one sampling rule, one settings-field helper and one 2*pi, LAPACK
solves only in the Levenberg-Marquardt normal equations, no run-time filter
design by scipy's bilinear transform, the table format (its column-names
line, its text body parser and its binary body decoder) kept in recordio,
one writer per file format, no scipy at run time (numpy is the only
dependency; scipy is a test oracle), and no command-line option that its
command's handler does not read."""

import argparse
import ast
import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alignor"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _exported_names(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def _top_level_names(tree):
    """Names bound at module level: defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for t in targets:
            if isinstance(t, ast.Name):
                yield t.id


def test_module_constants_are_read():
    assigned = {name for path in MODULES for name in _top_level_names(_tree(path))
                if name.isupper()}
    read = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(assigned - read) == []


def _count(predicate):
    return sum(predicate(node) for path in SRC.rglob("*.py")
               for node in ast.walk(_tree(path)))


def _is_call_to(name):
    def pred(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (isinstance(f, ast.Name) and f.id == name) or \
            (isinstance(f, ast.Attribute) and f.attr == name)
    return pred


def _is_assignment_to(name):
    def pred(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            return False
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)
    return pred


@pytest.mark.parametrize("name", ["TWO_PI", "RAISED_COS_10_90"])
def test_constant_assigned_once(name):
    assert _count(_is_assignment_to(name)) == 1


def _enclosing_functions(predicate):
    """(module, innermost enclosing function) of every node matching predicate."""
    found = []

    def visit(node, module, func):
        if predicate(node):
            found.append((module, func))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in SRC.rglob("*.py"):
        visit(_tree(path), path.stem, None)
    return found


def test_bilinear_not_called_in_package():
    # lowpass_filter writes its bilinear-transformed biquad in closed form;
    # scipy.signal.bilinear is only the test oracle
    assert _enclosing_functions(_is_call_to("bilinear")) == []


def _is_linalg_solve(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "solve"):
        return False
    owner = node.func.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or \
        (isinstance(owner, ast.Name) and owner.id == "linalg")


def test_linalg_solve_only_in_scalar_oracles():
    # the grid solvers are closed forms and the LAPACK steady-state oracles
    # live in tests/oracles.py; LAPACK solves only the Levenberg-Marquardt
    # normal equations
    assert _enclosing_functions(_is_linalg_solve) == [("fitkit", "_lm_descend")]


def test_oracle_names_stay_out_of_package():
    # the slow references stay in the tests, so the package keeps one
    # implementation of each steady state
    oracle = set(_top_level_names(_tree(ROOT / "tests" / "oracles.py")))
    found = sorted((path.stem, name) for path in MODULES for tree in [_tree(path)]
                   for name in set(_top_level_names(tree)) | set(_imported_names(tree))
                   if name in oracle)
    assert found == []


def test_signal_mix_written_once():
    uses = _enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "c_al")
    assert set(uses) == {("spincore", "signals_from_state")}


def test_one_latch_chain():
    # the orientation -> latch -> field step is written once and both
    # sweeps run on it; dynamics keeps the protocol and the latch rule
    assert set(_enclosing_functions(_is_call_to("latch_scan"))) == {
        ("instrument", "_latch_chain")}
    grids = {"orientation_steady_state_grid", "alignment_steady_state_grid"}
    assert grids.isdisjoint(_imported_names(_tree(SRC / "dynamics.py")))


def _is_dict_keyed_by(key):
    return lambda node: isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == key for k in node.keys)


def test_one_trend_table():
    # each trend kind's names, model, Jacobian and start live in TRENDS, and
    # a linear kind's design is built from its model, not written by hand
    names = set(_top_level_names(_tree(SRC / "fitkit.py")))
    assert "TRENDS" in names
    assert names.isdisjoint({"TREND_KINDS", "TREND_PARAM_NAMES", "TREND_EVAL"})
    assert _enclosing_functions(_is_dict_keyed_by("hyperbola")) == [("fitkit", None)]
    assert _enclosing_functions(_is_call_to("column_stack")) == [("fitkit", "_unit_design")]


def test_one_study_kind_table():
    # a study kind's grid setting, x label and trends are one row of
    # study.KINDS
    names = set(_top_level_names(_tree(SRC / "study.py")))
    assert "KINDS" in names
    assert names.isdisjoint({"TREND_MAP", "_X_LABEL", "_point_settings"})
    assert _enclosing_functions(_is_dict_keyed_by("single")) == [("study", None)]


def _is_math_call(name):
    return lambda node: _is_call_to(name)(node) and isinstance(node.func, ast.Attribute) \
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"


def test_circular_pump_fraction_written_once():
    # sin|2 chi| is circular_power's; the simulation's m0 scaling and the
    # preset's latch threshold call it
    assert _enclosing_functions(_is_math_call("sin")) == [("estimators", "circular_power")]


def _is_product_with(factor):
    return lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.Constant) and side.value == factor
        for side in (node.left, node.right))


def test_one_sampling_rule():
    # 20 samples per modulation period: one check for ScanConfig and for
    # the meta of a record that lockin_demodulate reads
    assert _enclosing_functions(_is_product_with(20.0)) == [("instrument", "_check_sampling")]
    assert set(_enclosing_functions(_is_call_to("_check_sampling"))) == {
        ("instrument", "__post_init__"), ("instrument", "lockin_demodulate")}


def _is_two_pi(node):
    """2.0 * math.pi, also as the tail of a product: x * 2.0 * math.pi."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.right, ast.Attribute) and node.right.attr == "pi"):
        return False
    left = node.left.right if _is_product_with(2.0)(node.left) else node.left
    return isinstance(left, ast.Constant) and left.value == 2.0


def test_two_pi_written_once():
    assert _enclosing_functions(_is_two_pi) == [("spincore", None)]


def test_settings_fields_named_once():
    # record meta, its replay and the config sections name the flat fields
    # of a settings dataclass through one helper
    assert _enclosing_functions(_is_call_to("is_dataclass")) == [("spincore", "settings_fields")]


def test_loadtxt_only_in_read_table():
    # the whole-body parse and the per-line scan that locates a bad row
    assert set(_enclosing_functions(_is_call_to("loadtxt"))) == {("recordio", "read_table")}


def test_frombuffer_only_in_read_table():
    # the one decoder of a binary record body
    assert set(_enclosing_functions(_is_call_to("frombuffer"))) == {("recordio", "read_table")}


def _is_file_write(node):
    """A call of write_text, write_bytes, or of open (the builtin or
    Path.open) with a mode that writes."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    args = node.args[1:] if isinstance(f, ast.Name) else node.args  # skip open's file
    mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else None)
    if mode is None:
        return False  # the default mode, "r"
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_files_written_only_by_the_format_writers():
    # text tables, binary record bodies and SVG figures each have one writer
    assert set(_enclosing_functions(_is_file_write)) == {
        ("recordio", "write_table"), ("recordio", "_write_binary_table"),
        ("plotsvg", "emit_plot")}


def test_columns_line_literal_only_in_recordio():
    uses = _enclosing_functions(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "# columns:" in node.value)
    assert uses and {module for module, _ in uses} == {"recordio"}


def _references(tree):
    """Names a file refers to: loads, attribute names and exact-name strings
    (``__all__`` entries, getattr-style lookups); a def's mentions of its
    own name (recursion) do not count."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            else node.attr if isinstance(node, ast.Attribute) \
            else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            else None
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_top_level_definition_is_referenced():
    defined = {(path.stem, node.name) for path in MODULES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    referenced = set()
    for folder in ("src", "tests", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= _references(_tree(path))
    assert sorted(d for d in defined if d[1] not in referenced) == []


def _imports_scipy(node):
    modules = [a.name for a in node.names] if isinstance(node, ast.Import) else \
        [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
    return any(m.split(".")[0] == "scipy" for m in modules)


def test_no_scipy_import_in_package():
    assert _enclosing_functions(_imports_scipy) == []


def test_package_and_cli_load_without_scipy():
    code = ("import sys, alignor, alignor.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _cli_commands():
    """(command, handler, option dests) of every leaf parser of the CLI; a
    nested command also carries the dests of the parsers above it."""
    from alignor.cli import build_parser

    def walk(parser, name, inherited):
        dests = inherited + [a.dest for a in parser._actions
                             if not isinstance(a, argparse._HelpAction)]
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield name, parser.get_default("func"), dests
        for action in subs:
            for sub_name, sub in action.choices.items():
                yield from walk(sub, f"{name} {sub_name}", dests)

    top = build_parser()
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, parser in action.choices.items():
                yield from walk(parser, name, [])


def _args_reads(module_path):
    """function name -> (``args.<attr>`` names it reads, names it calls)."""
    out = {}
    for node in _tree(module_path).body:
        if isinstance(node, ast.FunctionDef):
            reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "args"}
            calls = {n.func.id for n in ast.walk(node)
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            out[node.name] = (reads, calls)
    return out


def test_every_cli_option_is_read_by_its_handler():
    functions = _args_reads(SRC / "cli.py")
    unread = []
    for command, handler, dests in _cli_commands():
        reads, todo, seen = set(), [handler.__name__], set()
        while todo:  # the handler and the cli helpers it calls
            name = todo.pop()
            if name in functions and name not in seen:
                seen.add(name)
                reads |= functions[name][0]
                todo += functions[name][1]
        unread += [(command, dest) for dest in dests if dest not in reads]
    assert unread == []
