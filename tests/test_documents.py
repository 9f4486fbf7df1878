"""JSON document layer: roundtrips and rejection of malformed input."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arcinv.arcs import (
    Arc,
    Hypersurface,
    MonomialParametrization,
    monomial_arc,
    sample_binomial_arc,
)
from arcinv.contact import ResolutionData, rbar_of_multiindex
from arcinv.documents import (
    arc_to_doc,
    hypersurface_to_doc,
    load_arc,
    load_hypersurface,
    load_resolution,
    parse_arc,
    parse_hypersurface,
    parse_resolution,
    resolution_to_doc,
    save_document,
)
from arcinv.errors import DocumentError, PreconditionError
from arcinv.polynomials import Polynomial
from arcinv.rees import ReesAlgebra
from arcinv.tseries import TRational

XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
EXAMPLE = ResolutionData.of(
    (2, 3),
    [((3, 3), 1), ((2, 4), 1), ((12, 18), 5)],
    coord_val=((3, 3), (2, 4), (2, 3)),
)


def test_hypersurface_roundtrip():
    assert parse_hypersurface(hypersurface_to_doc(QUINTIC)).f == QUINTIC.f


def test_arc_roundtrip_with_rational_components():
    arc = Arc(
        [
            TRational({1: Fraction(2, 3), 4: 1}, {0: 1, 2: -1}),
            TRational.t(2),
            TRational.zero(),
        ]
    )
    assert parse_arc(arc_to_doc(arc)) == arc


ROOT = Path(__file__).resolve().parent.parent


def seeded_arcs(seeds=range(4)) -> list[Arc]:
    """Arcs whose components have nontrivial denominators, one per seed.

    Each component comes out of one ``TRational`` operator (the constructor,
    *, / by a series and by a single term, - c, ** and ramify), so the
    golden file pins the num/den views that each of them leaves.
    """
    arcs = []
    for seed in seeds:
        rng = random.Random(seed)

        def coeff():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

        def series(low):
            return {low + k: coeff() for k in range(rng.randint(2, 4))}

        a, b, c = (TRational(series(low), series(0)) for low in (1, 0, 2))
        unit = TRational(series(0))
        components = [a, a * b, c / a, a / unit, c / TRational({1: coeff()}),
                      b - b.value_at_zero(), a**3, c.ramify(2)]
        arcs.append(Arc(components))
    return arcs


def test_seeded_arcs_keep_their_documents():
    got = json.dumps([arc_to_doc(arc) for arc in seeded_arcs()], indent=2, sort_keys=True)
    assert got + "\n" == (ROOT / "tests" / "golden" / "arc-to-doc-seeded.json").read_text()


@pytest.mark.parametrize("path", sorted((ROOT / "data").glob("*arc*.json")), ids=lambda p: p.name)
def test_arc_data_round_trips_byte_for_byte(path, tmp_path):
    save_document(tmp_path / "arc.json", arc_to_doc(load_arc(path)))
    assert (tmp_path / "arc.json").read_bytes() == path.read_bytes()


def test_resolution_roundtrip():
    assert parse_resolution(resolution_to_doc(EXAMPLE)) == EXAMPLE


def test_resolution_accepts_single_generator_shorthand():
    doc = {"kind": "resolution", "c": [1, 1], "a": [1, 3], "b": 1}
    data = parse_resolution(doc)
    assert data.gens == (((1, 3), 1),)


def test_kind_is_checked():
    doc = hypersurface_to_doc(QUINTIC)
    doc["kind"] = "arc"
    with pytest.raises(DocumentError):
        parse_hypersurface(doc)


def test_malformed_documents_rejected():
    with pytest.raises(DocumentError):
        parse_hypersurface({"kind": "hypersurface", "variables": []})
    with pytest.raises(DocumentError):
        parse_arc({"kind": "arc", "components": "nope"})
    with pytest.raises(DocumentError):
        parse_resolution({"kind": "resolution", "c": [2, 3]})
    doc = hypersurface_to_doc(QUINTIC)
    doc["variables"] = ["x", "x", "z"]
    with pytest.raises(DocumentError):
        parse_hypersurface(doc)


def test_float_coefficients_rejected():
    doc = {
        "kind": "hypersurface",
        "variables": ["x", "y"],
        "polynomial": [
            {"coeff_num": 0.5, "coeff_den": 1, "exponents": [2, 0]},
        ],
    }
    with pytest.raises(DocumentError):
        parse_hypersurface(doc)


def test_unit_polynomial_rejected_as_surface():
    doc = {
        "kind": "hypersurface",
        "variables": ["x", "y"],
        "polynomial": [{"coeff_num": 1, "coeff_den": 1, "exponents": [0, 0]}],
    }
    with pytest.raises(DocumentError):
        parse_hypersurface(doc)


def test_arc_with_vanishing_denominator_rejected():
    doc = {
        "kind": "arc",
        "components": [
            {
                "num": [{"coeff_num": 1, "coeff_den": 1, "exponents": [1]}],
                "den": [{"coeff_num": 1, "coeff_den": 1, "exponents": [1]}],
            }
        ],
    }
    with pytest.raises(DocumentError):
        parse_arc(doc)


def test_save_and_load(tmp_path):
    surface_path = tmp_path / "surface.json"
    arc_path = tmp_path / "arc.json"
    resolution_path = tmp_path / "resolution.json"
    save_document(surface_path, hypersurface_to_doc(QUINTIC))
    save_document(arc_path, arc_to_doc(monomial_arc((3, 2, 2))))
    save_document(resolution_path, resolution_to_doc(EXAMPLE))
    assert load_hypersurface(surface_path).f == QUINTIC.f
    assert load_arc(arc_path) == monomial_arc((3, 2, 2))
    assert load_resolution(resolution_path) == EXAMPLE


def test_load_reports_unreadable_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError):
        load_hypersurface(path)
    with pytest.raises(DocumentError):
        load_arc(tmp_path / "missing.json")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{")
    with pytest.raises(DocumentError):
        load_resolution(latin)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    with pytest.raises(DocumentError):
        load_arc(nested)


def test_saved_documents_are_stable_on_disk(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_document(path_a, resolution_to_doc(EXAMPLE))
    save_document(path_b, resolution_to_doc(EXAMPLE))
    assert path_a.read_bytes() == path_b.read_bytes()
    json.loads(path_a.read_text())


def _term(num, exponents, den=1):
    return {"coeff_num": num, "coeff_den": den, "exponents": exponents}


@pytest.mark.parametrize(
    "term",
    [_term(True, [2, 3, 0]), _term(1, [2, 3, 0], den=True), _term(1, [2, False, 0])],
    ids=["coeff_num", "coeff_den", "exponent"],
)
def test_hypersurface_rejects_json_booleans(term):
    doc = hypersurface_to_doc(QUINTIC)
    doc["polynomial"][0] = term
    with pytest.raises(DocumentError):
        parse_hypersurface(doc)


@pytest.mark.parametrize(
    "term", [_term(True, [3]), _term(1, [3], den=True), _term(1, [True])],
    ids=["coeff_num", "coeff_den", "exponent"],
)
def test_arc_rejects_json_booleans(term):
    doc = arc_to_doc(monomial_arc((3, 2, 2)))
    doc["components"][0]["num"] = [term]
    with pytest.raises(DocumentError):
        parse_arc(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("c", [True, 1]),
        ("gens", [{"d": [True, 3], "w": 1}]),
        ("gens", [{"d": [1, 3], "w": True}]),
        ("coord_val", [[True, 1], [1, 3], [2, 1]]),
        ("a", [True, 3]),
        ("b", True),
    ],
    ids=["c", "d", "w", "coord_val", "a", "b"],
)
def test_resolution_rejects_json_booleans(key, value):
    # Every replaced entry is 1, so the document is valid with true read as 1.
    doc = {
        "kind": "resolution",
        "c": [1, 1],
        "coord_val": [[1, 1], [1, 3], [2, 1]],
    }
    if key in ("a", "b"):
        doc.update({"a": [1, 3], "b": 1})
    else:
        doc["gens"] = [{"d": [1, 3], "w": 1}]
    doc[key] = value
    with pytest.raises(DocumentError):
        parse_resolution(doc)


PARAMETRIZATION = [(3, 0, 1), (0, 2, 1)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ResolutionData.of((True, 3), [((3, 3), 1)]),
        lambda: ResolutionData.of((1, 3), [((True, 3), 1)]),
        lambda: ResolutionData.of((1, 3), [((3, 3), True)]),
        lambda: ResolutionData.of((1, 3), [((3, 3), 1)], [(True, 3), (2, 4)]),
        lambda: rbar_of_multiindex(EXAMPLE, (True, 1)),
        lambda: ReesAlgebra([(Polynomial(XYZ, {(1, 0, 0): 1}), True)]),
        lambda: MonomialParametrization([(3, 0, True), (0, 2, 1)]),
        lambda: sample_binomial_arc(QUINTIC, PARAMETRIZATION, (True, 1), 0),
    ],
    ids=["c", "d", "w", "coord_val", "multi-index", "weight", "exponent", "order"],
)
def test_library_refuses_booleans_as_integers(build):
    # Every True stands where 1 is valid, so only the type is wrong.
    with pytest.raises(PreconditionError, match="integer"):
        build()


@st.composite
def resolution_data(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    coord_val = draw(st.lists(row, min_size=1, max_size=3))
    c = [min(column) for column in zip(*coord_val)]
    assume(any(c))
    gens = draw(st.lists(st.tuples(row.filter(any), st.integers(1, 5)), min_size=1))
    return ResolutionData.of(c, gens, draw(st.sampled_from([None, coord_val])))


@given(resolution_data())
def test_resolution_documents_roundtrip(data):
    assert parse_resolution(resolution_to_doc(data)) == data
