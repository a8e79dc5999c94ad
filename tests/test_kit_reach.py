"""Static check that ``src/yolokit`` holds no function that only tests reach.

Every function or method defined in ``src/yolokit`` must be named somewhere
in the code of ``src/yolokit`` or ``perfbench/``, apart from its own ``def``:
as a NAME token, or as a string literal that equals the name or ends in
``.name``, which is how perfbench's tracer names what it patches; an
f-string's fields are code. Comments, docstrings and the package
``__init__``'s re-exports do not count.
``oracles.py`` (the independent cross-checks) and dunders are exempt. The
trees are read with ``tokenize``; nothing of the kit is imported or run.

Likewise every parameter with a default, of a function or an ``__init__``
in ``src/yolokit`` (``oracles.py`` aside), must be passed, by position or
by keyword, by some call in ``src/yolokit`` or ``perfbench/``: a default no
call overrides is a knob only tests turn. So must every field with a
default of a ``@dataclass(frozen=True)``, whose generated ``__init__``
takes its fields in order; a mutable record is left out, since its
fields are state that code assigns by attribute. Calls are matched by the
called name, a class's name for its ``__init__``; a ``*args`` or
``**kwargs`` in a call passes every parameter it could reach. An argument
that is a literal equal to the parameter's literal default restates it and
passes nothing. These trees are read with ``ast``.

The row classes ``Box``, ``Detection`` and ``GroundTruthBox`` are named in
the code of ``src/yolokit`` only by ``detect.py`` and ``evaluation.py``,
which define them and make them at perfbench's edges, ``oracles.py``,
``verify.py``'s fixtures and the package ``__init__``'s re-exports: every
other module passes tables. This rule reads NAME tokens with ``tokenize``.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KIT = ROOT / "src" / "yolokit"
TREES = (KIT, ROOT / "perfbench")
EXEMPT = KIT / "oracles.py"
REEXPORTS = KIT / "__init__.py"

_SKIPPED = {tokenize.NL, tokenize.COMMENT}
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def _tokens(source: bytes) -> list[tokenize.TokenInfo]:
    return [tok for tok in tokenize.tokenize(io.BytesIO(source).readline)
            if tok.type not in _SKIPPED]


def _scan(source: bytes):
    """(definitions, names): each ``def``'s (name, line), and every name the
    source's code gives, by NAME token or by string literal."""
    tokens = _tokens(source)
    definitions, names = [], set()
    for prev, tok, nxt in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if tok.type == tokenize.NAME:
            if prev is not None and prev.string == "def":
                definitions.append((tok.string, tok.start[0]))
            else:
                names.add(tok.string)
        elif tok.type == tokenize.STRING:
            if prev.type in _STATEMENT_START and nxt.type == tokenize.NEWLINE:
                continue  # a docstring, or a string as a statement
            literal = ast.parse(tok.string, mode="eval").body
            if isinstance(literal, ast.JoinedStr):  # an f-string: its fields are code
                names |= {node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(literal)
                          if isinstance(node, (ast.Name, ast.Attribute))}
            elif isinstance(literal.value, str):
                names.add(literal.value.rpartition(".")[2])
    return definitions, names


def unnamed_functions(sources: dict) -> list[str]:
    """``path:line name`` of each function defined in a ``sources`` path
    under ``KIT`` (``oracles.py`` and dunders aside) that no source names;
    ``sources`` maps a path to its bytes."""
    defined, named = [], set()
    for path, source in sources.items():
        definitions, names = _scan(source)
        if path != REEXPORTS:
            named |= names
        if path.is_relative_to(KIT) and path != EXEMPT:
            defined += [(path, line, name) for name, line in definitions]
    return [f"{path.relative_to(ROOT)}:{line} {name}" for path, line, name in defined
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_every_kit_function_is_named_by_the_kit_or_perfbench():
    sources = {path: path.read_bytes() for tree in TREES for path in sorted(tree.rglob("*.py"))}
    assert KIT / "ops.py" in sources and ROOT / "perfbench" / "run.py" in sources
    assert unnamed_functions(sources) == []


def test_comments_docstrings_and_reexports_do_not_name_a_function():
    kit = {
        KIT / "a.py": b'def used():\n    """unused is named here."""\n    return 1\n'
                      b"def unused():  # used()\n    pass\n"
                      b"def patched():\n    pass\n"
                      b"def dunder():\n    pass\n"
                      b"def formatted():\n    pass\n"
                      b"class C:\n    def __len__(self):\n        return used()\n",
        KIT / "b.py": b'"""unused"""\nX = "a.patched"\nY = "dunder"\nZ = f"unused {formatted()}"\n',
        REEXPORTS: b'from .a import unused\n__all__ = ["unused"]\n',
    }
    assert [line.split()[-1] for line in unnamed_functions(kit)] == ["unused"]


ROW_CLASSES = {"Box", "Detection", "GroundTruthBox"}
ROW_HOMES = {KIT / name for name in ("detect.py", "evaluation.py", "oracles.py", "verify.py",
                                     "__init__.py")}


def named_rows(sources: dict) -> list[str]:
    """``path:line name`` of each row class named as code in a ``sources``
    path under ``KIT`` outside ``ROW_HOMES``; ``sources`` maps a path to
    its bytes."""
    return [f"{path.relative_to(ROOT)}:{tok.start[0]} {tok.string}"
            for path, source in sources.items()
            if path.is_relative_to(KIT) and path not in ROW_HOMES
            for tok in _tokens(source)
            if tok.type == tokenize.NAME and tok.string in ROW_CLASSES]


def test_row_classes_are_named_only_where_rows_are_made():
    sources = {path: path.read_bytes() for path in sorted(KIT.rglob("*.py"))}
    assert KIT / "loss.py" in sources
    assert named_rows(sources) == []


def test_only_code_names_a_row_class():
    # a docstring, a comment, a string or a longer name is no use of a row
    # class; the homes and perfbench may name them
    kit = {
        KIT / "loss.py": b'"""Box and Detection rows."""\n'
                         b"from .detect import Detections, Box  # Detection\n"
                         b'X = "GroundTruthBox"\nDetections.of([])\n',
        KIT / "ppm.py": b"def f(d):\n    return d.box, GroundTruthBox\n",
        KIT / "detect.py": b"class Box:\n    pass\n",
        REEXPORTS: b"from .detect import Box, Detection\n",
        ROOT / "perfbench" / "p.py": b"from yolokit.detect import Detection\n",
    }
    assert named_rows(kit) == ["src/yolokit/loss.py:2 Box", "src/yolokit/ppm.py:2 GroundTruthBox"]


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is True for kw in d.keywords)
               for d in node.decorator_list)


_NOT_LITERAL = object()


def _literal(node: ast.expr):
    """The value of ``node`` if it is a literal, else ``_NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _defaulted_parameters(tree: ast.Module):
    """(called name, line, parameter, position, keyword, default) of each
    parameter with a default: ``position`` is its index among a call's
    positional arguments (None if it is keyword-only), ``keyword`` whether a
    keyword can pass it, ``default`` its node. A method's ``self`` or
    ``cls`` is no call's argument; an ``__init__`` is called by its class's
    name, as is a frozen dataclass, whose fields are its parameters."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for index, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item.lineno, item.target.id, index, True, item.value
    methods = {item: node.name if item.name == "__init__" else item.name
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        name, implicit = (methods[fn], 1) if fn in methods else (fn.name, 0)
        if name.startswith("__") and name.endswith("__"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for index, (param, default) in enumerate(
                zip(positional[first_default:], args.defaults), first_default):
            yield name, fn.lineno, param.arg, index - implicit, param in args.args, default
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, fn.lineno, param.arg, None, True, default


def _calls(tree: ast.Module):
    """(called name, positional arguments, first ``*`` position or None,
    keyword arguments by name, whether a ``**`` is given) of each call to a
    name or an attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, (ast.Name, ast.Attribute)):
            continue
        starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        yield (func.id if isinstance(func, ast.Name) else func.attr, node.args,
               starred[0] if starred else None, keywords,
               any(kw.arg is None for kw in node.keywords))


def unpassed_parameters(sources: dict) -> list[str]:
    """``path:line function(parameter)`` of each parameter with a default,
    of a function in a ``sources`` path under ``KIT`` (``oracles.py``
    aside), that no call in ``sources`` passes; ``sources`` maps a path to
    its bytes."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)

    def passed(name, position, param, keyword, default):
        default = _literal(default)

        def gives(arg):  # anything but the literal default restated
            return default is _NOT_LITERAL or _literal(arg) != default

        return any(
            position is not None and (star is not None and position >= star
                                      or position < len(args) and gives(args[position]))
            or keyword and (param in keywords and gives(keywords[param]) or double_star)
            for args, star, keywords, double_star in calls.get(name, ()))

    return [f"{path.relative_to(ROOT)}:{line} {name}({param})"
            for path, tree in trees.items() if path.is_relative_to(KIT) and path != EXEMPT
            for name, line, param, position, keyword, default in _defaulted_parameters(tree)
            if not passed(name, position, param, keyword, default)]


def test_every_kit_default_is_passed_by_the_kit_or_perfbench():
    sources = {path: path.read_bytes() for tree in TREES for path in sorted(tree.rglob("*.py"))}
    assert unpassed_parameters(sources) == []


def test_a_default_counts_as_passed_only_by_a_call_that_can_reach_it():
    kit = {
        KIT / "a.py": b"def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                      b"def g(x=0):\n    pass\n"
                      b"def h(y=0):  # h(1)\n    '''h(y=1)'''\n"
                      b"def k(z=0):\n    pass\n"
                      b"class C:\n    def __init__(self, u=0, v=0):\n        pass\n"
                      b"    def m(self, w=0):\n        pass\n"
                      b"f(0, 5)\nf(0, e=5)\ng(y=1)\nk(*[1])\nC(1)\nC().m(**{})\n",
        KIT / "oracles.py": b"def exempt(q=0):\n    pass\n",
        ROOT / "perfbench" / "p.py": b"from yolokit.a import f\nf(0, d=1)\n",
    }
    assert [line.split()[-1] for line in unpassed_parameters(kit)] == [
        "f(c)", "g(x)", "h(y)", "C(v)"]


def test_a_literal_equal_to_the_default_passes_nothing():
    # restating a default leaves it a knob; a name, an expression (even one
    # equal to it) or a literal that differs is a pass, and so is any
    # argument for a default that is no literal
    kit = {
        KIT / "a.py": b"from dataclasses import dataclass\n"
                      b"N = 1\n"
                      b"def f(a=1, b=(2, 3), *, c=None, d=-1, e='x'):\n    pass\n"
                      b"def g(x=N):\n    pass\n"
                      b"@dataclass(frozen=True)\nclass F:\n    y: int = 0\n    z: float = 0.5\n"
                      b"f(1, (2, 3), c=None, d=-1, e='y')\nf(N)\ng(1)\nF(0, z=0.25)\n",
        ROOT / "perfbench" / "p.py": b"from yolokit.a import f\nf(b=(2, 3), d=1 - 2)\n",
    }
    assert [line.split()[-1] for line in unpassed_parameters(kit)] == [
        "F(y)", "f(b)", "f(c)"]


@pytest.mark.parametrize("calls, unpassed", [
    ("f(1.0)", ["f(a)"]),  # an equal literal of another type restates it
    ("f(1)\nf(a=1)", ["f(a)"]),  # restatements do not add up to a pass
    ("f(1)\nf(2)", []),  # one call that gives another value is enough
    ("f(*[1])", []),  # a star's values are not read
    ("f(**{'a': 1})", []),
], ids=["equal-float", "restated-twice", "one-differs", "star", "double-star"])
def test_one_call_that_differs_from_a_literal_default_passes_it(calls, unpassed):
    kit = {KIT / "a.py": b"def f(a=1):\n    pass\n" + calls.encode() + b"\n"}
    assert [line.split()[-1] for line in unpassed_parameters(kit)] == unpassed


def test_a_frozen_dataclass_field_counts_as_passed_only_by_a_call_that_can_reach_it():
    # a frozen record's defaults are its constructor's; a mutable one's,
    # state assigned by attribute, are not checked
    kit = {
        KIT / "a.py": b"from dataclasses import dataclass\n"
                      b"@dataclass(frozen=True)\nclass F:\n    a: int\n    b: int = 1\n"
                      b"    c: int = 2\n    d: int = 3\n    e: int = 4\n"
                      b"@dataclass(frozen=True, eq=False)\nclass G:\n    x: int = 0\n"
                      b"@dataclass\nclass M:\n    y: int = 0\n"
                      b"@dataclass(frozen=False)\nclass N:\n    z: int = 0\n"
                      b"F(0, 5)\nF(0, e=5)\nM(x=1)\n",
        ROOT / "perfbench" / "p.py": b"from yolokit.a import F\nF(0, d=1)\n",
    }
    assert [line.split()[-1] for line in unpassed_parameters(kit)] == ["F(c)", "G(x)"]


def test_a_patched_or_aliased_name_passes_no_default():
    # patching a function, or calling it through an alias, passes none of
    # its defaults; a keyword of the same name to another function neither
    kit = {
        KIT / "loss.py": b"def loss_gradients(y, t, weights=None):\n    pass\n"
                         b"def other(weights=None):\n    pass\n",
        ROOT / "perfbench" / "p.py": b"from yolokit import loss\n"
                                     b"real = loss.loss_gradients\n"
                                     b"loss.loss_gradients = lambda y, t, w: real(y, t, w)\n"
                                     b"setattr(loss, 'loss_gradients', real)\n"
                                     b"loss.other(weights=1)\n",
    }
    assert [line.split()[-1] for line in unpassed_parameters(kit)] == ["loss_gradients(weights)"]
