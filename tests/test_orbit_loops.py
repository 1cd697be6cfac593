"""Only the guarded orbit walk and a few named loops may step a map per iteration.

A loop that applies a base map must tag a refusal at a cocycle wall with
its step.  :func:`ergolab.cocycles.guarded_walk` does, so any other loop
that calls ``.apply(`` would be a copy of it.  These tests read the package
source and fail on such a loop outside the allow-list: iterated fiber maps
and the special-flow walks (roof crossings).  Interval-exchange near scans,
which have no cocycle, walk on it too, with ``f=None``.  In ``recurrence.py``
one function, ``_exchange_lap``, calls the walk: every interval-exchange
scan and excess estimate takes its lap from there, so the lap closure at an
exact return has one home.  A rational angle from a rational start steps
on the exact integer twin, :func:`ergolab.cocycles.rational_walk`, from a
few named functions only, so a second rational orbit loop cannot creep back.
Near times, rational or irrational, and the kernel's near-wall steps are
listed by one three-gap walk, :func:`ergolab.cocycles.arc_returns`, from
one function in each module, so the near listing keeps one home.  The
word classifier of grid starts, :func:`ergolab.cocycles.word_cells`, has
one caller, the batch of excursions that only ``induced_statistics`` runs,
and ``induce_point`` stays the one per-sample walk in ``induced.py``.
"""
import ast
from pathlib import Path

import ergolab

PACKAGE = Path(ergolab.__file__).parent
ALLOWED = {
    ("cocycles.py", "guarded_walk"),
    ("cocycles.py", "_flow_walk"),
    ("skew.py", "SkewSystem.fiber_power"),
    ("systems.py", "special_flow_step"),
}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _owners(tree: ast.Module):
    """``(name, node)`` per top-level definition; methods are ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                name = getattr(item, "name", None)
                yield (f"{top.name}.{name}" if name else top.name), item
        else:
            yield getattr(top, "name", None), top


def _apply_aliases(node: ast.AST) -> set[str]:
    """Names bound to an ``.apply`` attribute, as in ``locate, apply = w.locate, s.apply``."""
    names = set()
    for assign in ast.walk(node):
        if not isinstance(assign, ast.Assign):
            continue
        for target in assign.targets:
            pairs = [(target, assign.value)]
            if isinstance(target, ast.Tuple) and isinstance(assign.value, ast.Tuple):
                pairs = list(zip(target.elts, assign.value.elts))
            for name, value in pairs:
                if isinstance(name, ast.Name) and isinstance(value, ast.Attribute) and (
                    value.attr == "apply"
                ):
                    names.add(name.id)
    return names


def loop_apply_sites(source: str) -> set[tuple[str | None, int]]:
    """``(owner, line)`` of every call of ``.apply(``, or of an alias of it, in a loop."""
    sites = set()
    for owner, top in _owners(ast.parse(source)):
        aliases = _apply_aliases(top)
        for loop in ast.walk(top):
            if not isinstance(loop, LOOPS):
                continue
            for call in ast.walk(loop):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Attribute) and func.attr == "apply") or (
                    isinstance(func, ast.Name) and func.id in aliases
                ):
                    sites.add((owner, call.lineno))
    return sites


def test_finder_sees_every_loop_form():
    snippet = (
        "def walk(base, p, n):\n"
        "    locate, apply = base.walls.locate, base.apply\n"
        "    for _ in range(n):\n"
        "        p = base.apply(p)\n"
        "    while n:\n"
        "        p, n = apply(p), n - 1\n"
        "    def inner():\n"
        "        for _ in range(n):\n"
        "            yield apply(p)\n"
        "    return [base.apply(q) for q in (p,)], base.apply(p), locate(p)\n"
        "class Map:\n"
        "    def power(self, y, n):\n"
        "        for _ in range(n):\n"
        "            y = self.apply(y) if n > 0 else self.inverse_apply(y)\n"
        "        return y\n"
        "for x in []:\n"
        "    x.apply(x)\n"
    )
    assert sorted(loop_apply_sites(snippet), key=lambda site: site[1]) == [
        ("walk", 4), ("walk", 6), ("walk", 9), ("walk", 10), ("Map.power", 14), (None, 17)
    ]


def test_only_the_guarded_walk_and_named_loops_apply_maps_in_loops():
    offenders, allowed_sites = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, line in loop_apply_sites(path.read_text()):
            if (path.name, owner) in ALLOWED:
                allowed_sites.add((path.name, owner))
            else:
                offenders.append(f"{path.name}:{line} in {owner or 'module scope'}")
    assert offenders == []
    assert allowed_sites == ALLOWED  # the rule still names the real loops


def callers(source: str, name: str) -> set[str | None]:
    """Owners of every call of ``name`` or of an attribute ``.name``."""
    owners = set()
    for owner, top in _owners(ast.parse(source)):
        for call in ast.walk(top):
            if isinstance(call, ast.Call) and name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                owners.add(owner)
    return owners


def test_finder_sees_every_call_form():
    snippet = (
        "def a(base):\n"
        "    return list(guarded_walk(base, None, 0, 1))\n"
        "def b(base):\n"
        "    return [s for s, _ in cocycles.guarded_walk(base, None, 0, 1)]\n"
        "def c(walk=guarded_walk):\n"
        "    return walk\n"
    )
    assert callers(snippet, "guarded_walk") == {"a", "b"}


def test_one_recurrence_function_walks_the_orbit():
    source = (PACKAGE / "recurrence.py").read_text()
    assert callers(source, "guarded_walk") == {"_exchange_lap"}


def test_named_functions_walk_rational_orbits():
    owners = {
        name: callers((PACKAGE / name).read_text(), "rational_walk")
        for name in ("recurrence.py", "induced.py", "cocycles.py")
    }
    assert owners == {
        "recurrence.py": {"find_zero_sums"},
        "induced.py": {"induce_point"},
        "cocycles.py": {"birkhoff_sums"},
    }


def test_one_function_per_module_lists_arc_returns():
    owners = {
        name: callers((PACKAGE / name).read_text(), "arc_returns")
        for name in ("recurrence.py", "cocycles.py")
    }
    assert owners == {"recurrence.py": {"_rotation_near_times"}, "cocycles.py": {"steps_within"}}


def test_one_batch_classifies_words_and_one_function_walks_an_excursion():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    owners = {name: callers(source, "word_cells") for name, source in sources.items()}
    assert {name: found for name, found in owners.items() if found} == {
        "induced.py": {"_rotation_excursions"}
    }
    assert callers(sources["induced.py"], "_rotation_excursions") == {"induced_statistics"}
    walks = {walk: callers(sources["induced.py"], walk) for walk in ("guarded_walk", "rational_walk")}
    assert walks == {"guarded_walk": {"induce_point"}, "rational_walk": {"induce_point"}}
