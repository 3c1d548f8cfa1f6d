"""Every option of the package has a caller that sets it, and every public
function has a caller.

A defaulted parameter of a public function or method in `src/hilbcheck` is
an option: each one doubles the configurations that tests must cover.  An
option that no call in the package or the benchmark sets, by keyword or by
position, is a constant and should be written as one.  Tests do not count
as callers.

Calls are matched to definitions by name, so a call of any function or
method of the same name counts: the scan can miss an unset option, but it
reports no set one.  `fixtures` is exempt, since its `field` parameters are
the levers of the cross-field tests, and so is `cli.main(argv)`.

Likewise a public function or method that nothing in the package or the
benchmark names is code that only tests reach.  A name counts when it is
loaded, as a name or an attribute, or written as a string, as the
benchmark's tracer names the functions it wraps.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hilbcheck"

EXEMPT = {"main(argv)"}


def options(source):
    """(call name, what, position, keyword) of each defaulted parameter of a
    public function or method in the module source.  `what` names it as
    `function(parameter)`; position is its index among the positional
    arguments of a call, infinite for a keyword-only parameter.  A
    constructor's options are called by its class name."""
    out = []

    def scan(fn, call_name, qualname, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional[len(positional) - len(args.defaults):],
                              start=len(positional) - len(args.defaults)):
            out.append((call_name, f"{qualname}({a.arg})", i - skip, a.arg))
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((call_name, f"{qualname}({a.arg})", math.inf, a.arg))

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            scan(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    scan(fn, node.name, node.name, 1)
                elif not fn.name.startswith("_"):
                    scan(fn, fn.name, f"{node.name}.{fn.name}", 0 if static else 1)
    return out


def calls(source):
    """(name, positional count, keywords) of each call in the module source;
    a starred argument counts as every position and ** as every keyword."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        out.append((name, math.inf if starred else len(node.args),
                    None if None in keywords else keywords))
    return out


def unset_options(option_sources, caller_sources):
    """What of each option that no call in the caller sources sets."""
    made = [c for source in caller_sources for c in calls(source)]
    unset = []
    for name, what, position, keyword in (o for source in option_sources
                                          for o in options(source)):
        if not any(n == name and (count > position or keywords is None or keyword in keywords)
                   for n, count, keywords in made):
            unset.append(what)
    return sorted(set(unset) - EXEMPT)


def test_every_option_has_a_caller_that_sets_it():
    modules = sorted(SRC.glob("*.py"))
    option_sources = [p.read_text() for p in modules if p.stem != "fixtures"]
    caller_sources = [p.read_text() for p in modules]
    caller_sources += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unset_options(option_sources, caller_sources) == []


def test_option_scan_sees_each_unset_option():
    source = ("def f(x, y=1, *, z=2):\n"
              "    return g(x, 3)\n"
              "def g(a, b=0, c=0):\n"
              "    return h(*a) + H(1, **a)\n"
              "def h(a=0, b=0):\n"
              "    return a\n"
              "def _private(a=0):\n"
              "    return a\n"
              "class H:\n"
              "    def __init__(self, a, b=0, c=0):\n"
              "        self.a = a\n"
              "    def m(self, k=0):\n"
              "        return self.s(1)\n"
              "    @staticmethod\n"
              "    def s(u, v=0):\n"
              "        return f(1, z=3)\n")
    assert unset_options([source], [source]) == ["H.m(k)", "H.s(v)", "f(y)", "g(c)"]


def public_functions(source):
    """(name, what) of each public function and non-dunder public method in
    the module source; `what` is `function` or `Class.method`."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(fn.name, f"{node.name}.{fn.name}") for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return out


def named(source):
    """Every name loaded in the module source, as a name or an attribute, and
    every string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled(definition_sources, caller_sources):
    """What of each public function or method that no caller source names."""
    names = set().union(*map(named, caller_sources))
    return sorted({what for source in definition_sources
                   for name, what in public_functions(source) if name not in names})


def test_every_public_function_has_a_caller():
    modules = sorted(SRC.glob("*.py"))
    sources = [p.read_text() for p in modules]
    callers = sources + [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert uncalled(sources, callers) == []


def test_caller_scan_sees_each_uncalled_function():
    source = ("TRACED = ('traced',)\n"
              "def f(x):\n"
              "    return g(x).used + x.method\n"
              "def g(x):\n"
              "    return x\n"
              "def traced():\n"
              "    pass\n"
              "def orphan():\n"
              "    return 'orphan()'\n"
              "def _private():\n"
              "    pass\n"
              "class H:\n"
              "    def __init__(self):\n"
              "        self.stored = 0\n"
              "    def method(self):\n"
              "        return self\n"
              "    def stored(self):\n"
              "        return self\n"
              "    def unused(self):\n"
              "        return self\n")
    assert uncalled([source], [source]) == ["H.stored", "H.unused", "f", "orphan"]
