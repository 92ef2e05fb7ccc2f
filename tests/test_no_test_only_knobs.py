"""Every settable default in the package is set by the package.

A parameter or dataclass field with a default that no call in
``src/nnmetric`` ever passes is a knob only tests turn: ``nnmetric run``
and the oracles always take its default, so its other branches are code
nothing uses.  This contract reads the package's source and fails on such a
knob unless it is listed below with its reason.  A knob counts as passed
when some call to a function (or dataclass) of that name passes it by
keyword or by position; a ``**`` argument passes every field and a ``*``
argument every position.  An instance call cannot be told from its name,
so a ``__call__`` parameter counts as passed by any call that passes its
keyword.  ``bruteforce`` holds the slow oracles, which only
tests and the oracle suites run, so it neither defines nor passes knobs
here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nnmetric"

# (owner, parameter) -> why the package keeps a default it never overrides
UNPASSED = {
    ("GerryTrainConfig", "stop_rel_tol"): "the stop rule is about to be replaced; tests turn "
    "it off to run every epoch",
    ("HammingTrainConfig", "stop_rel_tol"): "shares the stop rule of GerryTrainConfig",
    ("RegTrainConfig", "stop_rel_tol"): "inherits the stop rule of GerryTrainConfig",
    ("train_reg_sgd", "audit_psd"): "records the minimum eigenvalue after each update, the "
    "check that W stays PSD",
    ("main", "argv"): "the command line's entry point; tests hand it arguments",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _function_knobs(owner: str, node, skip_self: bool):
    """(owner, name, position) of each defaulted parameter; position is None
    for keyword-only parameters."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    offset = 1 if skip_self else 0
    first_default = len(positional) - len(args.defaults)
    for pos in range(first_default, len(positional)):
        yield owner, positional[pos].arg, pos - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield owner, arg.arg, None


def _dataclass_fields(node: ast.ClassDef, classes: dict) -> list:
    """(name, has default) of every field, inherited fields first."""
    fields = []
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            fields += _dataclass_fields(classes[base.id], classes)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append((stmt.target.id, stmt.value is not None))
    return fields


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "bruteforce"
    }


def knobs(trees) -> set:
    """(owner, name, position) of every defaulted parameter and field; a
    dataclass owns the fields it inherits, from any module of the package."""
    found = set()
    classes = {n.name: n for tree in trees.values()
               for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    for cls in classes.values():
        if _is_dataclass(cls):
            for pos, (name, has_default) in enumerate(_dataclass_fields(cls, classes)):
                if has_default:
                    found.add((cls.name, name, pos))
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in stmt.decorator_list)
                found.update(_function_knobs(stmt.name, stmt, skip_self=not static))
    methods = {id(s) for c in classes.values() for s in c.body}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and id(node) not in methods:
                found.update(_function_knobs(node.name, node, skip_self=False))
    return found


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def passed(trees) -> set:
    """(callee, name or position) of every argument some call passes; a
    ``**`` argument passes every name, a ``*`` argument every position."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            for pos, arg in enumerate(node.args):
                out.add((name, "*" if isinstance(arg, ast.Starred) else pos))
            for kw in node.keywords:
                out.add((name, kw.arg or "**"))
                out.add(("__call__", kw.arg))
    return out


def _is_passed(owner, name, pos, calls) -> bool:
    if {(owner, name), (owner, "**")} & calls:
        return True
    return pos is not None and bool({(owner, pos), (owner, "*")} & calls)


TREES = _trees()
KNOBS = knobs(TREES)
CALLS = passed(TREES)


def test_every_default_is_passed_by_the_package():
    unpassed = sorted(
        (owner, name)
        for owner, name, pos in KNOBS
        if not _is_passed(owner, name, pos, CALLS) and (owner, name) not in UNPASSED
    )
    assert not unpassed, f"defaults that only tests set (delete them, or list why): {unpassed}"


def test_listed_exceptions_exist_and_stay_unpassed():
    defined = {(owner, name): pos for owner, name, pos in KNOBS}
    for key in UNPASSED:
        assert key in defined, f"{key} is gone; drop it from UNPASSED"
        assert not _is_passed(*key, defined[key], CALLS), f"{key} is passed now; drop it"
