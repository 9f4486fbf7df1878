"""No export that only the tests use.

Every name in ``arcinv.__all__``, and every public method or property of
``TPoly``, ``TRational`` and ``Polynomial``, must be referenced somewhere in
``src/``, ``scripts/`` or ``bench/`` other than its own definition.  A
reference is any name or attribute node with that name, so a method is kept
alive by any same-named attribute; the re-exports of ``arcinv/__init__.py``
do not count.
"""

import ast
import inspect
from pathlib import Path

import arcinv
from arcinv.polynomials import Polynomial
from arcinv.tseries import TPoly, TRational

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ["src/arcinv/*.py", "scripts/*.py", "bench/*.py"]

# Public names that stay without a caller in the program, one reason each.
ALLOWED = {
    "dominates": "the paper's containment criterion for contact multi-indices; "
    "the tests use it as the oracle for the minimality of fat components",
    "Polynomial.compose": "the pullback f(gamma(t)) as a canonical quotient, whose order "
    "the program reads through compose_order; the sympy oracles check that order through it",
    "Polynomial.coordinate": "the coordinate function x_i of the ring; the jet oracle of "
    "the multiplicity sequence builds its jets from it",
}


def program_references() -> set[str]:
    names = set()
    for pattern in PROGRAM:
        for path in ROOT.glob(pattern):
            if path == ROOT / "src" / "arcinv" / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def public_surface() -> dict[str, str]:
    """Label -> the name a use would carry."""
    surface = {name: name for name in arcinv.__all__}
    for cls in (TPoly, TRational, Polynomial):
        for name, value in vars(cls).items():
            routine = isinstance(value, (property, classmethod)) or inspect.isfunction(value)
            if routine and not name.startswith("_"):
                surface[f"{cls.__name__}.{name}"] = name
    return surface


def test_every_public_name_is_used_by_the_program():
    used = program_references()
    surface = public_surface()
    unused = sorted(label for label, name in surface.items() if name not in used)
    assert unused == sorted(ALLOWED)
