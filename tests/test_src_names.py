"""Guard against regrowth: every definition in ``src/hodiff`` has a use there.

A function, method or class whose name occurs in no other place of the
package (a call, an attribute, a reference or an import, so an export in
``__init__`` counts) is code only the tests or the benchmark reach.  Test
oracles belong in ``tests/oracles.py``; what the benchmark alone reads is
listed in ``BENCH_ONLY`` with the file that reads it.  Dunder methods are
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodiff"

# name -> the bench/ file that reads it
BENCH_ONLY = {
    "stabilizer_orbit": "bench/tracer.py",
    "stabilizer_roots": "bench/tracer.py",
    "saturated_map": "bench/tracer.py",
    "weyl_order": "bench/workloads.py",
    "is_w_invariant": "bench/workloads.py",
    "value_at_zero": "bench/workloads.py",
    "exp_poly": "bench/workloads.py",
}


def unused_definitions(src: Path) -> list:
    """(file:line, name) of each non-dunder definition under src whose name
    occurs nowhere under src except in its own definition."""
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [(where, name) for where, name in defined
            if name not in used
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_in_src_is_used_in_src():
    unused = unused_definitions(SRC)
    unexpected = [(where, name) for where, name in unused if name not in BENCH_ONLY]
    assert not unexpected, f"defined in src/ but used only outside it: {unexpected}"
    # an allowlisted name that gains a caller in src/ leaves the list
    assert {name for _where, name in unused} == set(BENCH_ONLY)


def test_bench_only_names_are_read_by_their_bench_file():
    root = SRC.parent.parent
    for name, reader in BENCH_ONLY.items():
        assert name in (root / reader).read_text(), (name, reader)
