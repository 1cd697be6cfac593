"""Only the certified kernels may cut a 192-bit mantissa down to a 64-bit word.

A 64-bit word decides a cell only for a step far enough from every wall
that the word's lag cannot cross one; the kernel lists the other steps and
decides them exactly, and its word form for grid starts, ``word_cells``,
leaves the words in a wall's band to its caller's 192-bit test.  Anywhere else a word would certify a perturbed
system.  These tests read the package source and fail on any other
truncation site.

They also keep ``fixedpoint.MAX_ERR_ULPS`` the only radius margin: no
module compares anything against ``2**128`` ulps, the word size, which
would refuse at a radius of its own instead of where
:meth:`~ergolab.fixedpoint.Walls.locate` refuses.
"""
import ast
from pathlib import Path

import ergolab

PACKAGE = Path(ergolab.__file__).parent
KERNELS = {("cocycles.py", "certified_cells"), ("cocycles.py", "word_cells")}


def _is_low_bits(node: ast.AST) -> bool:
    """``128``, ``_LOW_BITS`` or ``SCALE - 64``: the shift that keeps the top 64 bits."""
    if isinstance(node, ast.Constant):
        return node.value == 128
    if isinstance(node, ast.Name):
        return node.id == "_LOW_BITS"
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Name)
        and node.left.id == "SCALE"
        and isinstance(node.right, ast.Constant)
        and node.right.value == 64
    )


def truncation_sites(source: str) -> set[tuple[str | None, int]]:
    """``(top-level definition or None, line)`` of every 64-bit truncation.

    A truncation is a right shift (plain or augmented) by ``_is_low_bits``,
    or any other read of ``_LOW_BITS``.
    """
    sites = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            shift = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.RShift
            )
            if shift and _is_low_bits(node.right if isinstance(node, ast.BinOp) else node.value):
                sites.add((owner, node.lineno))
            elif isinstance(node, ast.Name) and node.id == "_LOW_BITS" and isinstance(
                node.ctx, ast.Load
            ):
                sites.add((owner, node.lineno))
    return sites


def test_finder_sees_every_truncation_form():
    snippet = (
        "_LOW_BITS = SCALE - 64\n"
        "def f(m):\n"
        "    a = m >> 128\n"
        "    b = m >> _LOW_BITS\n"
        "    c = m >> (SCALE - 64)\n"
        "    m >>= 128\n"
        "    d = 1 << _LOW_BITS\n"
        "    return m >> 64, m << 128\n"
    )
    assert sorted(truncation_sites(snippet)) == [("f", line) for line in (3, 4, 5, 6, 7)]


def test_only_the_certified_kernels_truncate_mantissas():
    offenders, kernel_sites = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, line in truncation_sites(path.read_text()):
            if (path.name, owner) in KERNELS:
                kernel_sites.add((path.name, owner))
            else:
                offenders.append(f"{path.name}:{line} in {owner or 'module scope'}")
    assert offenders == []
    assert kernel_sites == KERNELS  # the rule still names the real kernels


def _is_word_size(node: ast.AST) -> bool:
    """``1 << 128``, ``1 << _LOW_BITS``, ``1 << (SCALE - 64)`` or ``2 ** 128``."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.left, ast.Constant):
        return False
    if isinstance(node.op, ast.LShift):
        return node.left.value == 1 and _is_low_bits(node.right)
    return isinstance(node.op, ast.Pow) and node.left.value == 2 and _is_low_bits(node.right)


def word_margin_sites(source: str) -> set[tuple[str | None, int]]:
    """``(top-level definition or None, line)`` of every comparison against the word size."""
    sites = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                map(_is_word_size, [node.left, *node.comparators])
            ):
                sites.add((owner, node.lineno))
    return sites


def test_finder_sees_every_word_margin_form():
    snippet = (
        "def f(x_e, n, a_e):\n"
        "    a = x_e + n * a_e >= 1 << _LOW_BITS\n"
        "    b = n * a_e >= 1 << 128\n"
        "    c = 2**128 <= x_e\n"
        "    d = x_e < 1 << (SCALE - 64) < n\n"
        "    return x_e >= 1 << 96, x_e + (1 << 128), n >= 1 << 63\n"
    )
    assert sorted(word_margin_sites(snippet)) == [("f", line) for line in (2, 3, 4, 5)]


def test_no_module_keeps_a_radius_margin_of_its_own():
    offenders = [
        f"{path.name}:{line} in {owner or 'module scope'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, line in word_margin_sites(path.read_text())
    ]
    assert offenders == []
