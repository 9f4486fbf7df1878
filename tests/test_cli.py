"""Command line behaviour: output text, machine format, exit codes."""

import json
from pathlib import Path

import pytest

from arcinv.arcs import Hypersurface, monomial_arc
from arcinv.cli import main
from arcinv.contact import ResolutionData
from arcinv.documents import (
    arc_to_doc,
    hypersurface_to_doc,
    resolution_to_doc,
    save_document,
)
from arcinv.polynomials import Polynomial

DATA = Path(__file__).resolve().parent.parent / "data"
XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
EXAMPLE = ResolutionData.of(
    (2, 3),
    [((3, 3), 1), ((2, 4), 1), ((12, 18), 5)],
    coord_val=((3, 3), (2, 4), (2, 3)),
)


@pytest.fixture
def docs(tmp_path):
    paths = {
        "surface": tmp_path / "surface.json",
        "arc": tmp_path / "arc.json",
        "off_arc": tmp_path / "off_arc.json",
        "resolution": tmp_path / "resolution.json",
        "broken": tmp_path / "broken.json",
    }
    save_document(paths["surface"], hypersurface_to_doc(QUINTIC))
    save_document(paths["arc"], arc_to_doc(monomial_arc((6, 6, 5))))
    save_document(paths["off_arc"], arc_to_doc(monomial_arc((1, 1, 1))))
    save_document(paths["resolution"], resolution_to_doc(EXAMPLE))
    paths["broken"].write_text("{not json")
    return {k: str(v) for k, v in paths.items()}


def test_qpers_text_output(docs, capsys):
    code = main(["qpers", "--surface", docs["surface"], "--arc", docs["arc"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "rational persistance r: 6" in out
    assert "normalized order r/nu: 6/5" in out
    assert "predicted persistance floor(r): 6" in out


def test_qpers_ramification_table(docs, capsys):
    code = main(
        ["qpers", "--surface", docs["surface"], "--arc", docs["arc"], "--n-max", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "n = 4: rho = 24, floor(n*r) = 24 [ok]" in out


def test_nash_text_output(docs, capsys):
    code = main(["nash", "--surface", docs["surface"], "--arc", docs["arc"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "multiplicity sequence: 5 5 5 5 5 5 1" in out
    assert "persistance rho: 6" in out


def test_nash_trace(docs, capsys):
    code = main(
        ["nash", "--surface", docs["surface"], "--arc", docs["arc"], "--trace"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "step 1: chart s" in out


def test_nash_budget_is_inconclusive(docs, capsys):
    code = main(
        ["nash", "--surface", docs["surface"], "--arc", docs["arc"], "--budget", "2"]
    )
    out = capsys.readouterr().out
    assert code == 4
    assert "not reached" in out


def test_contact_level(docs, capsys):
    code = main(["contact", "--resolution", docs["resolution"], "--m", "13"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(2, 3)" in out and "(5, 1)" in out
    assert "delta_13 = 14/13" in out


def test_contact_delta_table(docs, capsys):
    code = main(["contact", "--resolution", docs["resolution"], "--m-max", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta_5 = 6/5 [ok]" in out
    assert "envelope check passed: True" in out


def test_contact_needs_a_level(docs, capsys):
    code = main(["contact", "--resolution", docs["resolution"]])
    assert code == 2


def test_bounds(docs, capsys):
    code = main(["bounds", "--resolution", docs["resolution"], "--samples", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact bounds: [1, 6/5]" in out
    assert "all samples inside the bounds: True" in out


def test_verify_suite(docs, capsys):
    code = main(["verify", "x2y3z6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "8/8 checks passed" in out
    assert "FAIL" not in out


def test_unknown_suite(docs, capsys):
    code = main(["verify", "nonsense"])
    assert code == 2


def test_malformed_input_exits_2(docs, capsys):
    code = main(["qpers", "--surface", docs["broken"], "--arc", docs["arc"]])
    out = capsys.readouterr().out
    assert code == 2
    assert "input error" in out


def test_precondition_violation_exits_3(docs, capsys):
    code = main(["qpers", "--surface", docs["surface"], "--arc", docs["off_arc"]])
    out = capsys.readouterr().out
    assert code == 3
    assert "precondition violated" in out


def test_machine_format_is_json(docs, capsys):
    code = main(
        ["qpers", "--surface", docs["surface"], "--arc", docs["arc"],
         "--format", "machine"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == "6/1"
    assert payload["r_bar"] == "6/5"
    assert payload["nu"] == 5
    assert payload["floor_r"] == 6


def test_machine_format_is_deterministic(docs, capsys):
    argv = [
        "bounds", "--resolution", docs["resolution"],
        "--samples", "100", "--seed", "3", "--format", "machine",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "." not in json.dumps(json.loads(first))  # no floats anywhere


def test_machine_nash_payload(docs, capsys):
    code = main(
        ["nash", "--surface", docs["surface"], "--arc", docs["arc"],
         "--format", "machine"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == [5, 5, 5, 5, 5, 5, 1]
    assert payload["rho"] == 6
    assert payload["status"] == "reached"


def test_oversized_integer_literal_exits_2(docs, tmp_path, capsys):
    huge = tmp_path / "huge.json"
    text = Path(docs["surface"]).read_text()
    huge.write_text(text.replace('"coeff_num": 1', '"coeff_num": 1' + "0" * 5000, 1))
    code = main(["qpers", "--surface", str(huge), "--arc", docs["arc"]])
    out = capsys.readouterr().out
    assert code == 2
    assert "is not valid JSON" in out


def test_delta_envelope_needs_level_13(capsys):
    code = main(["verify", "x2y3z6", "--m-max", "5"])
    out = capsys.readouterr().out
    assert code == 3
    assert "precondition violated" in out


# Every command-line example of the README, plus a level whose components
# touch the default --m search box.
BUNDLED_EXAMPLES = [
    ["qpers", "--surface", "x2y3z6_surface.json", "--arc", "arc_t6_t6_t5.json"],
    ["qpers", "--surface", "x2y3z6_surface.json", "--arc", "arc_t6_t6_t5.json",
     "--n-max", "8"],
    ["nash", "--surface", "cusp_surface.json", "--arc", "cusp_arc.json", "--trace"],
    ["contact", "--resolution", "x2y3z6_resolution.json", "--m", "13"],
    ["contact", "--resolution", "x2y3z6_resolution.json", "--m-max", "20"],
    ["bounds", "--resolution", "x2y3z6_resolution.json", "--samples", "500",
     "--seed", "0"],
    ["contact", "--resolution", "almost_rees_resolution.json", "--m", "7"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv", BUNDLED_EXAMPLES, ids=[" ".join(argv) for argv in BUNDLED_EXAMPLES]
)
def test_bundled_examples_run_clean(argv, capsys):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    machine = argv + ["--format", "machine"]
    outputs = []
    for _ in range(2):
        assert main(machine) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])
