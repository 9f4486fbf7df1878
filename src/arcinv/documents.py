"""Reading and writing the JSON input documents.

Three document kinds exist: hypersurfaces, arcs, and resolution data.  All
rationals travel as integer pairs (``coeff_num`` / ``coeff_den``), never as
floats, so documents round-trip exactly.

Polynomial: a list of terms ``{"coeff_num": p, "coeff_den": q,
"exponents": [e_1, ..., e_n]}``.  Univariate polynomials in t use the same
shape with a single exponent.

Hypersurface: ``{"kind": "hypersurface", "variables": [...],
"polynomial": [terms]}``.

Arc: ``{"kind": "arc", "components": [{"num": [terms], "den": [terms]}]}``;
``den`` may be omitted and defaults to 1.

Resolution data: ``{"kind": "resolution", "c": [...], "gens":
[{"d": [...], "w": k}], "coord_val": [[...]]}``; the single-generator form
``"a": [...], "b": k`` may replace ``gens``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .arcs import Arc, Hypersurface
from .contact import ResolutionData
from .errors import DocumentError, PreconditionError
from .polynomials import Polynomial
from .tseries import TPoly, TRational


def _is_int(x: Any) -> bool:
    """An integer that is not a JSON boolean (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _check_kind(doc: Any, expected: str) -> None:
    _require(isinstance(doc, dict), f"expected a JSON object for a {expected}")
    kind = doc.get("kind")
    if kind is not None and kind != expected:
        raise DocumentError(f"document kind {kind!r} where {expected!r} was expected")


def _fraction_from_term(term: Any) -> Fraction:
    _require(isinstance(term, dict), "polynomial terms must be objects")
    num = term.get("coeff_num")
    den = term.get("coeff_den", 1)
    _require(_is_int(num) and _is_int(den), "coefficients must be integer pairs")
    _require(den != 0, "coefficient denominator must be nonzero")
    return Fraction(num, den)


def parse_polynomial(terms: Any, variables: tuple[str, ...]) -> Polynomial:
    _require(isinstance(terms, list), "a polynomial must be a list of terms")
    collected: dict[tuple[int, ...], Fraction] = {}
    for term in terms:
        coeff = _fraction_from_term(term)
        exponents = term.get("exponents")
        _require(
            isinstance(exponents, list)
            and len(exponents) == len(variables)
            and all(_is_int(e) and e >= 0 for e in exponents),
            f"term exponents must be {len(variables)} non-negative integers",
        )
        key = tuple(exponents)
        collected[key] = collected.get(key, Fraction(0)) + coeff
    return Polynomial(variables, collected)


def polynomial_to_terms(p: Polynomial) -> list[dict[str, Any]]:
    return [
        {
            "coeff_num": c.numerator,
            "coeff_den": c.denominator,
            "exponents": list(e),
        }
        for e, c in p.items()
    ]


def parse_tpoly(terms: Any) -> TPoly:
    _require(isinstance(terms, list), "a t-polynomial must be a list of terms")
    collected: dict[int, Fraction] = {}
    for term in terms:
        coeff = _fraction_from_term(term)
        exponents = term.get("exponents")
        _require(
            isinstance(exponents, list)
            and len(exponents) == 1
            and _is_int(exponents[0])
            and exponents[0] >= 0,
            "t-polynomial terms carry exactly one non-negative exponent",
        )
        key = exponents[0]
        collected[key] = collected.get(key, Fraction(0)) + coeff
    return TPoly(collected)


def tpoly_to_terms(p: TPoly) -> list[dict[str, Any]]:
    return [
        {"coeff_num": c.numerator, "coeff_den": c.denominator, "exponents": [e]}
        for e, c in p.items()
    ]


def parse_hypersurface(doc: Any) -> Hypersurface:
    _check_kind(doc, "hypersurface")
    variables = doc.get("variables")
    _require(
        isinstance(variables, list)
        and variables
        and all(isinstance(v, str) for v in variables),
        "a hypersurface needs a nonempty list of variable names",
    )
    polynomial = parse_polynomial(doc.get("polynomial"), tuple(variables))
    try:
        return Hypersurface(polynomial)
    except PreconditionError as exc:
        raise DocumentError(str(exc)) from exc


def hypersurface_to_doc(surface: Hypersurface) -> dict[str, Any]:
    return {
        "kind": "hypersurface",
        "variables": list(surface.variables),
        "polynomial": polynomial_to_terms(surface.f),
    }


def parse_arc(doc: Any) -> Arc:
    _check_kind(doc, "arc")
    components = doc.get("components")
    _require(isinstance(components, list) and components, "an arc needs components")
    parsed = []
    for comp in components:
        _require(isinstance(comp, dict), "arc components must be objects")
        num = parse_tpoly(comp.get("num"))
        den = TPoly.one() if comp.get("den") is None else parse_tpoly(comp.get("den"))
        try:
            parsed.append(TRational(num, den))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"invalid arc component: {exc}") from exc
    try:
        return Arc(parsed)
    except PreconditionError as exc:
        raise DocumentError(str(exc)) from exc


def arc_to_doc(arc: Arc) -> dict[str, Any]:
    components = []
    for comp in arc.components:
        entry: dict[str, Any] = {"num": tpoly_to_terms(comp.num)}
        if comp.den != TPoly.one():
            entry["den"] = tpoly_to_terms(comp.den)
        components.append(entry)
    return {"kind": "arc", "components": components}


def parse_resolution(doc: Any) -> ResolutionData:
    _check_kind(doc, "resolution")
    c = doc.get("c")
    _require(
        isinstance(c, list) and c and all(_is_int(x) for x in c),
        "resolution data needs an integer vector c",
    )
    if "gens" in doc:
        raw = doc["gens"]
        _require(isinstance(raw, list) and raw, "gens must be a nonempty list")
        gens = []
        for entry in raw:
            _require(isinstance(entry, dict), "each generator must be an object")
            d = entry.get("d")
            w = entry.get("w")
            _require(
                isinstance(d, list) and all(_is_int(x) for x in d),
                "generator vectors d must be integer lists",
            )
            _require(_is_int(w), "generator weights w must be integers")
            gens.append((d, w))
    elif "a" in doc:
        a = doc.get("a")
        b = doc.get("b")
        _require(
            isinstance(a, list) and all(_is_int(x) for x in a),
            "the vector a must be an integer list",
        )
        _require(_is_int(b), "the weight b must be an integer")
        gens = [(a, b)]
    else:
        raise DocumentError("resolution data needs either 'gens' or 'a' and 'b'")
    coord_val = doc.get("coord_val")
    if coord_val is not None:
        _require(
            isinstance(coord_val, list)
            and coord_val
            and all(
                isinstance(row, list) and all(_is_int(x) for x in row)
                for row in coord_val
            ),
            "coord_val must be a matrix of integers",
        )
    try:
        return ResolutionData.of(c, gens, coord_val)
    except PreconditionError as exc:
        raise DocumentError(str(exc)) from exc


def resolution_to_doc(data: ResolutionData) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": "resolution",
        "c": list(data.c),
        "gens": [{"d": list(d), "w": w} for d, w in data.gens],
    }
    if data.coord_val is not None:
        doc["coord_val"] = [list(row) for row in data.coord_val]
    return doc


def _load_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def load_hypersurface(path: str | Path) -> Hypersurface:
    return parse_hypersurface(_load_json(path))


def load_arc(path: str | Path) -> Arc:
    return parse_arc(_load_json(path))


def load_resolution(path: str | Path) -> ResolutionData:
    return parse_resolution(_load_json(path))


def save_document(path: str | Path, doc: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
