"""Guard against regrowth: every definition in ``src/hodiff`` has a use there.

A function, method or class whose name occurs in no other place of the
package (a call, an attribute, a reference or an import; an export in
``__init__`` does not count, as it is read from outside the package alone)
is code only the tests or the benchmark reach.  Test
oracles belong in ``tests/oracles.py``; what the benchmark alone reads is
listed in ``BENCH_ONLY`` with the file that reads it.  Dunder methods are
exempt.

Uses are matched to owners.  An attribute read through a class name
(``ExpPoly.constant``), or through ``self``/``cls`` inside a class body,
uses that class's method only.  A plain name or an import uses a definition
outside any class.  An attribute read through anything else (``rep.ok``,
``diffeq.verify_pieri``) cannot be resolved without types, so it uses every
definition of that name.  A class derived from a class of another module
(``argparse.ArgumentParser``) uses each of its methods that the base
defines, since the base calls them (argparse calls ``error``).

Every attribute that ``src/`` stores on an object must be read as an
attribute there too, matched by name as the uses above that cannot be typed
are; what only the tests, the benchmark or the standard library read is
listed in ``READ_OUTSIDE`` with a file that reads it.

The names the benchmark's trace patches are guarded too: every target in the
``SPANS`` and ``COUNTERS`` tables of ``bench/tracer.py`` (read as text) must
exist in ``src/``, and its post-call hooks must find what they read.

So are the number of settable values in ``src/`` (``SETTABLE_BOUND``) and
its line count (``SRC_LINE_BOUND``): a change that adds a knob or grows
``src/`` raises the bound and says why.  Each default in ``src/``, a
dataclass field's included, must have two values in use: some call in
``src/`` or ``bench/`` relies on it and some call overrides it
(``unused_defaults``).

The name guard matches names without types and exempts dunders, so a method
that only the tests call passes it.  The reach guard (``-m slow``) runs the
program (``PROGRAM_RUNS``: every subcommand, both B2 controls, an unwritable
--out and a usage error) under ``sys.setprofile`` and requires each function,
method and lambda of ``src/`` to be entered by a run, unless it is a
``BENCH_ONLY`` name or ``UNREACHED`` gives the reason no run enters it.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hodiff"

# name -> the bench/ file that reads it
BENCH_ONLY = {
    "stabilizer_orbit": "bench/tracer.py",
    "stabilizer_roots": "bench/tracer.py",
    "saturated_map": "bench/tracer.py",
    "weyl_order": "bench/workloads.py",
    "pairing": "bench/workloads.py",
    "is_w_invariant": "bench/workloads.py",
    "value_at_zero": "bench/workloads.py",
    "exp_poly": "bench/workloads.py",
    "apply_L": "bench/tracer.py",
    "scale": "bench/tests/test_bench_checks.py",
}

ANY = "*"   # the owner of a use that cannot be resolved

# attribute stored in src/ and read only outside it -> a file that reads it
READ_OUTSIDE = {
    "alpha": "tests/test_diffeq.py",   # the PoleAtSpectralPoint payload
    "simple_roots": "tests/test_rootsys.py",
    "cache_info": "bench/tracer.py",
    "_negative_number_matcher": argparse.__file__,   # cli._Parser's value pattern
}

# parameters with a default, dataclass fields and argparse options in src/
SETTABLE_BOUND = 103

# lines of src/hodiff/*.py, as ``wc -l`` counts them
SRC_LINE_BOUND = 3314


def _scan(tree, classes: set, defined: list, used: set, where: str):
    """Append (where:line, name, owner class or None) per definition under
    tree to defined, and add (name, owner) per use to used: the owner of a
    use is the class it names, None for a plain name, ANY if unresolved."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.ClassDef):
                defined.append((f"{where}:{child.lineno}", child.name, None))
                inner = child.name
                for base in child.bases:   # module.Class: it calls what it defines
                    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                        hooks = dir(getattr(importlib.import_module(base.value.id), base.attr))
                        used.update((name, inner) for name in hooks)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a function nested in a function belongs to no class
                defined.append((f"{where}:{child.lineno}", child.name,
                                owner if isinstance(node, ast.ClassDef) else None))
            elif isinstance(child, ast.Name):
                used.add((child.id, None))
            elif isinstance(child, ast.alias):
                used.add((child.name, None))
            elif isinstance(child, ast.Attribute):
                base = child.value
                if isinstance(base, ast.Name) and base.id in classes:
                    used.add((child.attr, base.id))
                elif isinstance(base, ast.Name) and base.id in ("self", "cls") and owner:
                    used.add((child.attr, owner))
                else:
                    used.add((child.attr, ANY))
            walk(child, inner)

    walk(tree, None)


def unused_definitions(src: Path) -> list:
    """(file:line, name) of each non-dunder definition under src that no use
    under src reaches, uses being matched to owners as described above; the
    names ``__init__.py`` reads (its exports) are no uses."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    defined, used = [], set()
    for name, tree in trees.items():
        _scan(tree, classes, defined, set() if name == "__init__.py" else used, name)
    return [(where, name) for where, name, owner in defined
            if not ({(name, owner), (name, ANY)} & used)
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_in_src_is_used_in_src():
    unused = unused_definitions(SRC)
    unexpected = [(where, name) for where, name in unused if name not in BENCH_ONLY]
    assert not unexpected, f"defined in src/ but used only outside it: {unexpected}"
    # an allowlisted name that gains a caller in src/ leaves the list
    assert {name for _where, name in unused} == set(BENCH_ONLY)


def test_uses_are_matched_to_their_owner(tmp_path):
    # two methods share a name: the one its class names is used, the other
    # is not, though its name occurs; a read through self reaches its own
    # class's method, one through a variable every method of the name, and
    # a plain name none of them.  argparse calls the error of a parser derived
    # from its ArgumentParser, but not a method the base lacks, nor the
    # error of a class of the package
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def constant(self):\n        return 1\n"
        "    def twice(self):\n        return self.once()\n"
        "    def once(self):\n        return 2\n"
        "class B:\n"
        "    def constant(self):\n        return 2\n"
        "    def shown(self):\n        return 3\n"
        "    def named(self):\n        return 4\n"
        "def use(x):\n"
        "    named = 5\n"
        "    return B.constant(x), A.twice(x), x.shown(), named\n"
        "print(use)\n"
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise ValueError(message)\n"
        "    def extra(self):\n        return 1\n"
        "class Q:\n"
        "    def error(self):\n        return 2\n"
        "print(P, Q)\n")
    assert sorted(unused_definitions(tmp_path)) == [
        ("m.py:13", "named"), ("m.py:2", "constant"), ("m.py:23", "extra"),
        ("m.py:26", "error")]
    assert [where for where, name in unused_definitions(tmp_path)
            if name == "constant"] == ["m.py:2"]


def test_an_export_is_no_use(tmp_path):
    # a name that __init__ only re-exports is unused; one that another module
    # also calls is used, and a definition in __init__ itself is still found
    (tmp_path / "m.py").write_text(
        "def exported():\n    return 1\n"
        "def called():\n    return 2\n")
    (tmp_path / "n.py").write_text("from .m import called\nprint(called())\n")
    (tmp_path / "__init__.py").write_text(
        "from .m import called, exported\n"
        "__all__ = ['called', 'exported']\n"
        "def helper():\n    return exported\n")
    assert sorted(name for _where, name in unused_definitions(tmp_path)) == [
        "exported", "helper"]


def test_bench_only_names_are_read_by_their_bench_file():
    root = SRC.parent.parent
    for name, reader in BENCH_ONLY.items():
        assert name in (root / reader).read_text(), (name, reader)


def _stores(target):
    """The nodes a store to target binds, tuple and starred targets unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [node for elt in target.elts for node in _stores(elt)]
    return _stores(target.value) if isinstance(target, ast.Starred) else [target]


def unread_attributes(src: Path) -> list:
    """(file:line, name) of the first store of each attribute that the
    modules under src store on an object (``x.name = ...``, annotated or
    augmented, tuple targets included) and read as an attribute nowhere
    there; a read matches a store by name alone."""
    stored, read = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = [t for target in node.targets for t in _stores(target)]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = _stores(node.target)
            else:
                targets = []
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            for t in targets:
                if isinstance(t, ast.Attribute):
                    stored.setdefault(t.attr, f"{path.name}:{t.lineno}")
    return sorted((where, name) for name, where in stored.items() if name not in read)


def test_every_stored_attribute_is_read_in_src():
    unread = unread_attributes(SRC)
    unexpected = [(where, name) for where, name in unread if name not in READ_OUTSIDE]
    assert not unexpected, f"stored in src/ but read only outside it: {unexpected}"
    # a listed attribute that gains a reader in src/ leaves the list
    assert {name for _where, name in unread} == set(READ_OUTSIDE)


def test_read_outside_attributes_are_read_by_their_file():
    root = SRC.parent.parent
    for name, reader in READ_OUTSIDE.items():
        assert f".{name}" in (root / reader).read_text(), (name, reader)


def test_unread_attributes_are_found(tmp_path):
    # self stores a, b and c by a tuple and a starred target, g by an
    # annotated one, and d plainly and augmented (which reads d only to store
    # it again); a is read through another object, by name a read of the
    # stored one, f is read in another module, and e is only deleted
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self, x):\n"
        "        self.a, (self.b, *self.c) = x, (1, 2)\n"
        "        self.g: int = 0\n"
        "        self.d = 0\n"
        "        self.d += 1\n"
        "        del self.e\n"
        "        self.f = 1\n"
        "def use(other):\n    return other.a\n")
    (tmp_path / "n.py").write_text("def read(o):\n    return o.f\n")
    assert unread_attributes(tmp_path) == [
        ("m.py:3", "b"), ("m.py:3", "c"), ("m.py:4", "g"), ("m.py:5", "d")]


def _tracer_table(name: str) -> tuple:
    """The literal tuple bound to name in bench/tracer.py, read as text."""
    tree = ast.parse((SRC.parent.parent / "bench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def test_every_traced_target_is_defined_in_src():
    # the trace patches each target by name (module, then attribute path, the
    # last read from its owner's __dict__); a target that is gone would stop
    # the benchmark's traced runs
    targets = _tracer_table("SPANS") + _tracer_table("COUNTERS")
    assert targets
    for _name, module, path in targets:
        owner = importlib.import_module(f"hodiff.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), (module, path)


def test_traced_hooks_read_what_src_provides():
    # the trace reads the report size from _emit's second argument, and
    # counts a polynomial built in the cache when jacobi_polynomial, which it
    # replaces in every module that imported it by name, is called directly
    # from poly_cache_get
    from hodiff import cli, diffeq, jacobi
    assert list(inspect.signature(cli._emit).parameters) == ["payload", "out_path"]
    assert diffeq.jacobi_polynomial is jacobi.jacobi_polynomial
    tree = ast.parse(inspect.getsource(diffeq.poly_cache_get))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "jacobi_polynomial" in calls
    assert "jacobi_polynomial" not in diffeq.poly_cache_get.__code__.co_varnames


def test_traced_spans_that_read_zero(tmp_path, monkeypatch):
    # a span that a traced one-sample campaign never enters shows nothing in
    # the per-layer metrics; these four are known (their work moved to label
    # functions the trace does not wrap), and the list may only shrink
    import importlib.util
    import sys

    from hodiff import cli
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", SRC.parent.parent / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)   # for its dataclass
    spec.loader.exec_module(tracer_module)
    with tracer_module.Tracer() as tracer:
        assert cli.main(["verify", "--samples", "1", "--out", str(tmp_path / "r.json")]) == 0
    zero = {name for name in tracer_module.SPAN_NAMES
            if tracer.spans.get(name, tracer_module.SpanStats()).calls == 0}
    assert zero == {"rootsys.saturated_map", "rootsys.stabilizer_orbit",
                    "rootsys.stabilizer_roots", "weylalg.apply_L"}


def _is_dataclass(node) -> bool:
    """The class node is decorated with ``@dataclass``, called or not."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def settable_values(src: Path) -> Counter:
    """Counts, over the modules under src, of the values a caller can set:
    parameters with a default (of functions and lambdas), the annotated
    fields of ``@dataclass`` classes, and ``add_argument`` options."""
    counts = Counter(default=0, field=0, option=0)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                counts["default"] += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                counts["field"] += sum(isinstance(b, ast.AnnAssign) for b in node.body)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                counts["option"] += 1
    return counts


def test_settable_values_are_counted(tmp_path):
    # two positional defaults, a keyword-only one and a lambda's; a plain
    # and a frozen dataclass's fields, not a plain class's or a class
    # constant; one option
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *c, d=2, e, h=None):\n    return lambda x, y=3: x\n"
        "@dataclass\nclass A:\n    p: int\n    q: int = 0\n    K = 5\n"
        "@dataclass(frozen=True)\nclass B:\n    r: int\n"
        "class C:\n    s: int\n"
        "def parser(p):\n    p.add_argument('--n', type=int)\n")
    assert settable_values(tmp_path) == Counter(default=4, field=3, option=1)


def test_settable_values_do_not_grow():
    counts = settable_values(SRC)
    assert sum(counts.values()) <= SETTABLE_BOUND, dict(counts)


def test_src_lines_do_not_grow():
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= SRC_LINE_BOUND, lines


def unused_defaults(src: Path, callers: list) -> list:
    """(file:line, function, parameter, why) of each default under src that
    the calls under src and callers do not both rely on and override.

    A call is matched to a definition by name; a call read as an attribute
    binds the first parameter of a method (a function defined in a class
    body, not a staticmethod).  A ``@dataclass`` is called by its class
    name, its fields in order as the positional parameters, and a field
    with ``init=False`` is none; a ``replace`` call (``dataclasses.replace``
    builds a copy through the constructor) overrides each field it names, of
    any dataclass, and relies on none.  A call that passes ``*args`` or
    ``**kwargs`` settles nothing.  A lambda has no name to be called by, so
    a default of a lambda (a value captured by default) is never in use."""
    defaults = []   # (where, name, parameter, positional index or None, method)
    fields = set()   # (dataclass, field) of each field default
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and "staticmethod" not in [getattr(d, "id", None) for d in f.decorator_list]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                init = []   # (field, it has a default), in order
                for f in (f for f in node.body if isinstance(f, ast.AnnAssign)):
                    made = getattr(getattr(f.value, "func", None), "id", None) == "field"
                    kw = {k.arg: k.value for k in f.value.keywords} if made else {}
                    if getattr(kw.get("init"), "value", True) is not False:
                        init.append((f, f.value is not None and (
                            not made or bool({"default", "default_factory"} & kw.keys()))))
                defaults += [(f"{path.name}:{f.lineno}", node.name, f.target.id, i, False)
                             for i, (f, default) in enumerate(init) if default]
                fields |= {(node.name, f.target.id) for f, default in init if default}
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            name = getattr(node, "name", "<lambda>")
            where = f"{path.name}:{node.lineno}"
            first = len(positional) - len(args.defaults)
            defaults += [(where, name, positional[i].arg, i, id(node) in methods)
                         for i in range(first, len(positional))]
            defaults += [(where, name, arg.arg, None, False)
                         for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    calls = {}   # name -> [(read as an attribute, number of positional arguments, keywords)]
    for root in [src, *callers]:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call) \
                        or any(isinstance(a, ast.Starred) for a in node.args) \
                        or any(k.arg is None for k in node.keywords):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name:
                    calls.setdefault(name, []).append((isinstance(node.func, ast.Attribute),
                                                       len(node.args),
                                                       {k.arg for k in node.keywords}))
    found = []
    for where, name, param, index, method in defaults:
        relied, overridden = False, (name, param) in fields and any(
            param in keywords for _bound, _n_args, keywords in calls.get("replace", []))
        for bound, n_args, keywords in calls.get(name, []):   # none for "<lambda>"
            if method and not bound:
                continue
            sets = param in keywords or (index is not None and index - method < n_args)
            overridden, relied = overridden or sets, relied or not sets
        if not (relied and overridden):
            found.append((where, name, param,
                          "never overridden" if relied else "never relied on"))
    return found


def test_every_default_has_two_values_in_use():
    # a default that every call relies on is a constant, and one that every
    # call overrides is a required parameter; the benchmark's calls count,
    # its tests included, as it calls src/ through the same signatures
    bench = SRC.parent.parent / "bench"
    assert unused_defaults(SRC, [bench]) == []


def test_unused_defaults_are_found(tmp_path):
    # b and c are each relied on by one call and overridden by the other,
    # and the method's p too, through its bound first parameter; d is
    # single-valued, y dead, and the lambda's captured r has no call at all;
    # a call with *args settles nothing.  The dataclass D is called by name:
    # its fields u (a field() with no default) and e (init=False) take no
    # default, e no position either, so the fifth argument sets z; v is set
    # by a replace call alone, and w is single-valued
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "def g(x, y=0):\n    return x\n"
        "class K:\n    def m(self, p=1):\n        return p\n"
        "@dataclass\nclass D:\n    a: int\n    u: int = field(repr=False)\n"
        "    b: int = 0\n    c: list = field(default_factory=list)\n"
        "    e: list = field(default_factory=list, init=False)\n"
        "    z: int = 1\n    v: int = 3\n    w: int = field(default=2)\n"
        "f(1, 2)\nf(1, c=5)\ng(1, 2)\ng(*[1])\n"
        "K().m()\nK().m(2)\nD(1, 0)\nD(1, 0, 2, [], 5)\nreplace(D(1, 0), v=4)\n"
        "h = lambda q, r=1: q\n")
    assert [(name, param, why) for _where, name, param, why in unused_defaults(tmp_path, [])] == [
        ("f", "d", "never overridden"), ("g", "y", "never relied on"),
        ("D", "w", "never overridden"),
        ("<lambda>", "r", "never relied on")]


# The program runs of the reach guard: (exit code, ``hodiff`` arguments), the
# --out files left to the runner ({out}, {missing}); one child process runs all
PROGRAM_RUNS = (
    (0, ["verify", "--out", "{out}"]),
    (1, ["verify", "--suite", "pieri", "--family", "B", "--rank", "2", "--perturb", "u-sign",
         "--out", "{out}"]),
    (1, ["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
         "--perturb", "v-drop-pairing2", "--out", "{out}"]),
    (2, ["verify", "--suite", "rankone", "--out", "{missing}"]),   # _emit's failed
    (2, ["verify", "--samples", "many"]),   # a usage error
    (0, ["jacobi", "--family", "B", "--rank", "2", "--lambda", "1,1", "--g", "1/2,1/3",
         "--out", "{out}"]),
    (0, ["coeffs", "--family", "G", "--rank", "2", "--omega", "1,0", "--format", "latex",
         "--out", "{out}"]),
    (0, ["sweep-rank-one", "--csv", "--out", "{out}"]),
    (0, ["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,0",
         "--xi", "1/40,-1/80", "--x", "0.25,-0.1,-0.15", "--out", "{out}"]),
)

# functions of src/ that no program run enters, by module and qualified name
# (a lambda bound to a name by that name), besides the BENCH_ONLY names
UNREACHED = {
    "rootsys.RootDatum._root_at": "only the bench-only pairing reads it",
    "rootsys.RootDatum._apply_word": "only the bench-only stabilizer_orbit and "
                                     "stabilizer_roots read it",
    "weylalg.apply_L.<locals>.<lambda>": "the sort key of the bench-only apply_L",
    "diffeq.pieri_index.cache_info": "the memo's counts, read by bench/tracer.py",
    "rankone.SweepRows.__len__": "an abstract method of Sequence",
    "rankone.SweepRows.__getitem__": "an abstract method of Sequence",
    "rootsys.RootDatum.__repr__": "the datum as a reader sees it",
    "rootsys.Multiplicities.__repr__": "the multiplicities as a reader sees them",
    "weylalg.ExpPoly.__repr__": "the polynomial as a reader sees it",
    "rootsys.Weight.__reduce__": "a weight pickled or copied as its plain tuple",
    "weylalg.ExpPoly.__setattr__": "the guard of a frozen ExpPoly",
}

_REACH_CHILD = """
import json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from hodiff import cli
codes = [cli.main(args) for args in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([codes, [(c.co_filename, c.co_firstlineno, c.co_name) for c in entered]]))
"""


def program_functions(src: Path) -> dict:
    """(file name, first line, code name) -> ``module.qualname`` of every
    function, method and lambda under src, as its code object names it: a
    decorated function starts at its first decorator, and a lambda bound to
    a name (``f.attr = lambda: ...``) is named by that name."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, ast.ClassDef):
                inner = f"{prefix}{child.name}."
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(f"{module}.py", line, child.name)] = f"{module}.{prefix}{child.name}"
                inner = f"{prefix}{child.name}.<locals>."
            elif isinstance(child, ast.Lambda):
                bound = isinstance(node, ast.Assign) and node.value is child
                name = ast.unparse(node.targets[0]) if bound else f"{prefix}<lambda>"
                found[(f"{module}.py", child.lineno, "<lambda>")] = f"{module}.{name}"
                inner = f"{prefix}<lambda>.<locals>."
            walk(child, module, inner)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return found


def unreached_functions(src: Path, runs, tmp_path: Path) -> list:
    """``module.qualname`` of each function, method or lambda under src that
    none of runs enters, the runs made by ``cli.main`` in one child process
    under ``sys.setprofile`` (its imports included); each run must exit with
    its code."""
    args = [[a.format(out=tmp_path / "out", missing=tmp_path / "missing" / "r.json")
             for a in run] for _code, run in runs]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _REACH_CHILD, json.dumps(args)], env=env,
                          capture_output=True, text=True, check=True)
    codes, entered = json.loads(proc.stdout)
    assert codes == [code for code, _run in runs], proc.stderr
    entered = {(Path(f).name, line, name) for f, line, name in entered
               if Path(f).resolve().parent == src.resolve()}
    return sorted(name for key, name in program_functions(src).items() if key not in entered)


def test_program_functions_are_keyed_as_their_code(tmp_path):
    # a method, a decorated function (its code starts at the decorator), a
    # function nested in it, a lambda in that and a lambda bound to an
    # attribute: each is keyed as its code object names it
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "class A:\n    def f(self):\n        return 1\n"
        "@functools.cache\ndef g():\n"
        "    def h():\n        return sorted([2, 1], key=lambda v: -v)\n"
        "    return h\n"
        "g.info = lambda: 0\n")
    spec = importlib.util.spec_from_file_location("m", tmp_path / "m.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    h = module.g()
    codes = [module.A.f.__code__, module.g.__wrapped__.__code__, h.__code__,
             module.g.info.__code__] + [c for c in h.__code__.co_consts if inspect.iscode(c)]
    found = program_functions(tmp_path)
    assert {(Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in codes} == set(found)
    assert sorted(found.values()) == [
        "m.A.f", "m.g", "m.g.<locals>.h", "m.g.<locals>.h.<locals>.<lambda>", "m.g.info"]


@pytest.mark.slow
def test_every_function_in_src_is_entered_by_a_program_run(tmp_path):
    # the name guard exempts dunders and matches names without types, so a
    # method that only the tests call (an operator, say) passes it; here each
    # function, method and lambda of src/ must be entered by one of the
    # program runs, unless the benchmark alone reads it or UNREACHED says why
    unreached = unreached_functions(SRC, PROGRAM_RUNS, tmp_path)
    unexpected = [q for q in unreached
                  if q not in UNREACHED and q.rsplit(".", 1)[-1] not in BENCH_ONLY]
    assert not unexpected, f"no program run enters: {unexpected}"
    # an exempt function that a run comes to enter leaves the list
    assert set(UNREACHED) <= set(unreached), set(UNREACHED) - set(unreached)
