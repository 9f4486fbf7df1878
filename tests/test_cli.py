"""Command line behaviour: output text, machine format, exit codes."""

import json
import os
import re
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from arcinv import cli, render, verify
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
from arcinv.rees import ReesAlgebra

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


def test_qpers_ramification_budget_is_inconclusive(docs, capsys):
    code = main(
        ["qpers", "--surface", docs["surface"], "--arc", docs["arc"],
         "--n-max", "3", "--budget", "8"]
    )
    out = capsys.readouterr().out
    assert code == 4
    assert "n = 2: rho = None, floor(n*r) = 12 [inconclusive]" in out


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


def test_contact_bound_is_only_checked_and_echoed(docs, capsys):
    level = ["contact", "--resolution", docs["resolution"], "--m", "13", "--format", "machine"]
    assert main(level) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(level + ["--bound", "3200"]) == 0
    bounded = json.loads(capsys.readouterr().out)
    assert bounded["bound"] == 3200
    for key in ("components", "delta"):
        assert bounded[key] == plain[key]
    assert main(level[:-2] + ["--bound", "12"]) == 3
    assert "the search bound must be at least m" in capsys.readouterr().out


def test_contact_delta_table(docs, capsys):
    code = main(["contact", "--resolution", docs["resolution"], "--m-max", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta_5 = 6/5 [ok]" in out
    assert "envelope check passed: True" in out


def test_contact_needs_a_level(docs, capsys):
    code = main(["contact", "--resolution", docs["resolution"]])
    assert code == 2


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["qpers", "--surface", "surface", "--arc", "arc", "--budget", "1"],
         "qpers --budget bounds the rows of --n-max"),
        (["contact", "--resolution", "resolution", "--m-max", "3", "--bound", "1"],
         "contact --bound is checked against --m and echoed; give both"),
    ],
    ids=["qpers-budget-without-n-max", "contact-bound-without-m"],
)
def test_flags_that_would_do_nothing_exit_2(argv, refusal, docs, capsys):
    code = main([docs.get(a, a) for a in argv])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("input error:") and refusal in out


def test_nash_budget_below_one_exits_3_on_an_infinite_arc(tmp_path, capsys):
    surface, arc = tmp_path / "double_plane.json", tmp_path / "trapped.json"
    save_document(surface, hypersurface_to_doc(Hypersurface(Polynomial(("x", "y"), {(2, 0): 1}))))
    save_document(arc, arc_to_doc(monomial_arc((None, 1))))
    code = main(["nash", "--surface", str(surface), "--arc", str(arc), "--budget", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "the step budget must be positive" in out


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


def test_repeated_variable_names_exit_2(docs, tmp_path, capsys):
    doc = hypersurface_to_doc(QUINTIC)
    doc["variables"] = ["x", "x", "z"]
    path = tmp_path / "repeated.json"
    save_document(path, doc)
    code = main(["qpers", "--surface", str(path), "--arc", docs["arc"]])
    out = capsys.readouterr().out
    assert code == 2
    assert "distinct variable names" in out


def test_deeply_nested_json_exits_2(docs, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code = main(["nash", "--surface", docs["surface"], "--arc", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "nests too deeply" in out


@pytest.mark.parametrize("flag", ["--n-max", "--m-max", "--seed", "--bound", "--samples",
                                  "--budget"])
def test_verify_suites_take_no_tuning_flags(flag, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x2y3z6", flag, "100000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


# Placeholders for arcs written by the test: (t^60, t^60, t^50) on x2y3z6,
# r = 60, ten times the bundled arc's, so its rows take ten times the steps;
# and (t^6n, t^6n, t^5n) at n = 10^6, a 200-byte document whose sequence
# would list 6,000,000 steps.
R60_ARC = "arc_t60_t60_t50"
N6_ARC = "arc_t6n_t6n_t5n"
# x^20000 in two variables, whose differential presentation took 1.5 s and
# 381 MB to build, and the arc (0, t) that stays in its singular locus.
X20000 = "surface_x20000"
ZERO_T_ARC = "arc_0_t"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["contact", "--resolution", str(DATA / "x2y3z6_resolution.json"), "--m", "100000"],
         "10000000 points"),
        (["contact", "--resolution", str(DATA / "x2y3z6_resolution.json"),
          "--m-max", "100000"], "10000000 points"),
        (["bounds", "--resolution", str(DATA / "x2y3z6_resolution.json"),
          "--samples", "100000000"], "100000000 samples is over 100000"),
        (["qpers", "--surface", str(DATA / "x2y3z6_surface.json"),
          "--arc", str(DATA / "arc_t6_t6_t5.json"), "--n-max", "100000"],
         "up to n_max 100000 has a step budget of 1000010000000, over 16040000"),
        (["qpers", "--surface", str(DATA / "x2y3z6_surface.json"),
          "--arc", R60_ARC, "--n-max", "127"],
         "up to n_max 127 has a step budget of 16256000, over 16040000"),
        (["nash", "--surface", str(DATA / "x2y3z6_surface.json"), "--arc", N6_ARC],
         "a step budget of 200000000 is over 50000"),
        (["nash", "--surface", str(DATA / "x2y3z6_surface.json"), "--arc", N6_ARC,
          "--trace"], "a step budget of 200000000 is over 50000"),
        (["nash", "--surface", str(DATA / "x2y3z6_surface.json"),
          "--arc", str(DATA / "arc_t6_t6_t5.json"), "--budget", "50001"],
         "a step budget of 50001 is over 50000"),
        (["qpers", "--surface", X20000, "--arc", ZERO_T_ARC],
         "the differential presentation has size 6081640000, over 1000000000"),
        (["nash", "--surface", X20000, "--arc", ZERO_T_ARC, "--budget", "10"],
         "the differential presentation has size 6081640000, over 1000000000"),
    ],
    ids=["contact-m", "contact-m-max", "bounds-samples", "qpers-n-max", "qpers-r-60",
         "nash-n-10-6", "nash-n-10-6-trace", "nash-budget", "qpers-x-20000",
         "nash-x-20000"],
)
def test_oversized_search_box_exits_4_before_the_scan(argv, refusal, tmp_path, capsys):
    placeholders = {
        R60_ARC: arc_to_doc(monomial_arc((60, 60, 50))),
        N6_ARC: arc_to_doc(monomial_arc((6 * 10**6, 6 * 10**6, 5 * 10**6))),
        X20000: hypersurface_to_doc(Hypersurface(Polynomial(("x", "y"), {(20000, 0): 1}))),
        ZERO_T_ARC: arc_to_doc(monomial_arc((None, 1))),
    }
    for name, doc in placeholders.items():
        save_document(tmp_path / name, doc)
    argv = [str(tmp_path / a) if a in placeholders else a for a in argv]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 4
    assert out.startswith("inconclusive:") and refusal in out
    assert elapsed < 1


def save_high_degree_case(tmp_path, k: int) -> list[str]:
    """--surface and --arc for y^2 - x^2 + y^k - x^k and the arc (t, t) on it."""
    terms = {(0, 2): 1, (2, 0): -1, (0, k): 1, (k, 0): -1}
    surface = hypersurface_to_doc(Hypersurface(Polynomial(("x", "y"), terms)))
    save_document(tmp_path / "surface.json", surface)
    save_document(tmp_path / "arc.json", arc_to_doc(monomial_arc((1, 1))))
    return ["--surface", str(tmp_path / "surface.json"), "--arc", str(tmp_path / "arc.json")]


@pytest.mark.parametrize("argv", [["nash"], ["qpers", "--n-max", "1"]], ids=["nash", "qpers"])
def test_an_oversized_translate_exits_4_before_expanding(argv, tmp_path, capsys):
    # The first recentering moves y^100000 - x^100000 by (1, 1): about 10^5
    # coefficients of up to 10^5 bits each.
    argv = argv + save_high_degree_case(tmp_path, 100000)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 4
    assert out.startswith("inconclusive:") and "the translate has size" in out
    assert elapsed < 1


def test_a_high_degree_translate_under_the_cap_answers(tmp_path, capsys):
    assert main(["nash", "--format", "machine"] + save_high_degree_case(tmp_path, 3000)) == 0
    assert json.loads(capsys.readouterr().out)["sequence"] == [2, 1]


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
    ["nash", "--surface", "x2y3z6_surface.json", "--arc", "arc_sampled_1_1_0.json",
     "--trace"],
]
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_path(argv: list[str], suffix: str = ".json") -> Path:
    """The recorded output of one bundled example: ``--format machine`` or text."""
    name = re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv).replace(".json", ""))
    return GOLDEN / (name.strip("-") + suffix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv", BUNDLED_EXAMPLES, ids=[" ".join(argv) for argv in BUNDLED_EXAMPLES]
)
def test_bundled_examples_run_clean(argv, capsys):
    golden = golden_path(argv).read_text()
    text = golden_path(argv, ".txt").read_text()
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr() == (text, "")
    machine = argv + ["--format", "machine"]
    outputs = []
    for _ in range(2):
        assert main(machine) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == golden
    json.loads(outputs[0])


# Branches no bundled example reaches, pinned in both formats with their exit
# codes: verify with its trace, an infinite r, inconclusive runs, one contact
# call with both tables, and sampled extrema the bounds do not attain.  The
# test writes the two placeholders: the double plane x^2 and the arc (0, t)
# on it, which stays in the maximal multiplicity locus.
DOUBLE_PLANE, TRAPPED_ARC = "double_plane.json", "arc_0_t.json"
UNBUNDLED_BRANCHES = [
    (["verify", "corpus", "--trace"], 0),
    (["qpers", "--surface", DOUBLE_PLANE, "--arc", TRAPPED_ARC], 0),
    (["qpers", "--surface", "x2y3z6_surface.json", "--arc", "arc_t6_t6_t5.json",
      "--n-max", "3", "--budget", "8"], 4),
    (["nash", "--surface", "x2y3z6_surface.json", "--arc", "arc_t6_t6_t5.json",
      "--budget", "2"], 4),
    (["nash", "--surface", DOUBLE_PLANE, "--arc", TRAPPED_ARC], 0),
    (["contact", "--resolution", "x2y3z6_resolution.json", "--m", "13",
      "--m-max", "20"], 0),
    (["bounds", "--resolution", "x2y3z6_resolution.json", "--samples", "1",
      "--seed", "1"], 0),
]


@pytest.mark.parametrize(
    "argv, code", UNBUNDLED_BRANCHES, ids=[" ".join(argv) for argv, _ in UNBUNDLED_BRANCHES]
)
def test_unbundled_branches_are_pinned(argv, code, tmp_path, capsys):
    save_document(tmp_path / DOUBLE_PLANE,
                  hypersurface_to_doc(Hypersurface(Polynomial(("x", "y"), {(2, 0): 1}))))
    save_document(tmp_path / TRAPPED_ARC, arc_to_doc(monomial_arc((None, 1))))
    folder = {DOUBLE_PLANE: tmp_path, TRAPPED_ARC: tmp_path}
    paths = [str(folder.get(a, DATA) / a) if a.endswith(".json") else a for a in argv]
    for fmt, suffix in (("text", ".txt"), ("machine", ".json")):
        assert main(paths + ["--format", fmt]) == code
        assert capsys.readouterr() == (golden_path(argv, suffix).read_text(), "")


@pytest.mark.parametrize(
    "argv",
    [
        ["qpers", "--surface", "x2y3z6_surface.json", "--arc", "arc_t6_t6_t5.json",
         "--n-max", "2"],
        ["nash", "--surface", "cusp_surface.json", "--arc", "cusp_arc.json", "--trace"],
        ["contact", "--resolution", "x2y3z6_resolution.json", "--m", "5", "--m-max", "5"],
        ["bounds", "--resolution", "x2y3z6_resolution.json", "--samples", "20"],
    ],
    ids=["qpers", "nash", "contact", "bounds"],
)
def test_only_the_chosen_format_is_rendered(argv, monkeypatch, capsys):
    calls = []

    def spy(value, keep_unit_den=False):
        calls.append(keep_unit_den)
        return render.format_rational(value, keep_unit_den)

    monkeypatch.setattr(cli, "format_rational", spy)
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--format", "machine"]) == 0
    assert calls and all(calls)
    calls.clear()
    assert main(argv + ["--format", "text"]) == 0
    assert calls and not any(calls)
    capsys.readouterr()


def test_verify_all_output_is_pinned(capsys):
    for fmt, suffix in (("text", ".txt"), ("machine", ".json")):
        assert main(["verify", "all", "--format", fmt]) == 0
        assert capsys.readouterr() == ((GOLDEN / f"verify-all{suffix}").read_text(), "")


CLOSED_FORM = verify.x2y3z6_grid_value


def off_at_1_1(alpha: int, beta: int) -> Fraction:
    """The closed form of the grid, wrong by 1 at (a, b) = (1, 1) alone."""
    value = CLOSED_FORM(alpha, beta)
    return value + 1 if (alpha, beta) == (1, 1) else value


def test_a_failing_check_prints_its_lines_and_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(verify, "x2y3z6_grid_value", off_at_1_1)
    failure = "(a,b)=(1,1): got 6/5, want 11/5"
    assert main(["verify", "x2y3z6"]) == 5
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAIL  rbar-grid: normalized orders over the multi-index grid "
                     "match the closed form")
    assert lines[at + 1 : at + 3] == ["      44 grid points with 1 <= a+b <= 8",
                                      f"      {failure}"]
    others = lines[:at] + lines[at + 3 : -1]
    assert len(others) == 7 and all(line.startswith("PASS  ") for line in others)
    assert lines[-1] == "7/8 checks passed in suite 'x2y3z6'"

    assert main(["verify", "x2y3z6", "--format", "machine"]) == 5
    result = json.loads(capsys.readouterr().out)
    assert result["passed"] is False
    failed = [check for check in result["checks"] if not check["passed"]]
    assert [check["ident"] for check in failed] == ["rbar-grid"]
    assert failed[0]["details"][-1] == failure


def test_center_order_fails_when_its_routes_disagree(monkeypatch, capsys):
    monkeypatch.setattr(verify, "hironaka_order", lambda data: Fraction(2))
    assert main(["verify", "x2y3z6"]) == 5
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAIL  center-order: order at the center equals 1 by all three routes")
    assert lines[at + 1 : at + 5] == [
        "      resolution data: 2",
        "      differential presentation: 1",
        "      hand presentation: 1",
        "      the three routes do not all give order 1",
    ]


def source_env() -> dict[str, str]:
    """The environment with the checkout's ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def reproduce_tables(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(DATA.parent / "scripts" / "reproduce_tables.py"), *args],
        capture_output=True, text=True, env=source_env(), timeout=120, check=False,
    )


def test_reproduce_tables_output_is_pinned():
    result = reproduce_tables()
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == (GOLDEN / "reproduce-tables.txt").read_text()


def run_reproduce_tables(monkeypatch, capsys) -> tuple[int, str]:
    """Run the script in this process, so monkeypatched checks apply to it."""
    script = str(DATA.parent / "scripts" / "reproduce_tables.py")
    monkeypatch.setattr(sys, "argv", [script])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(script, run_name="__main__")
    out, err = capsys.readouterr()
    assert err == ""
    return exit_.value.code, out


def test_reproduce_tables_exits_5_when_the_grid_breaks_its_closed_form(
    monkeypatch, capsys
):
    monkeypatch.setattr(verify, "x2y3z6_grid_value", off_at_1_1)
    code, out = run_reproduce_tables(monkeypatch, capsys)
    assert code == 5
    tables = (GOLDEN / "reproduce-tables.txt").read_text()
    assert out.startswith(tables + "\n")
    lines = out[len(tables) + 1 :].splitlines()
    at = lines.index("FAIL  rbar-grid: normalized orders over the multi-index grid "
                     "match the closed form")
    assert lines[at + 2] == "      (a,b)=(1,1): got 6/5, want 11/5"
    assert lines[-1] == "7/8 checks passed in suite 'x2y3z6'"


def weight_6_presentation() -> ReesAlgebra:
    """The hand presentation with z^6 in weight 6: order 1 at the center still."""
    x, y, z6 = (Polynomial(XYZ, {e: 1}) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 6)])
    return ReesAlgebra([(x, 1), (y, 1), (z6, 6)])


def test_reproduce_tables_exits_5_when_a_check_it_prints_no_table_for_fails(
    monkeypatch, capsys
):
    monkeypatch.setattr(verify, "x2y3z6_presentation", weight_6_presentation)
    code, out = run_reproduce_tables(monkeypatch, capsys)
    assert code == 5
    failed = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert failed == ["FAIL  presentation-crosscheck: arc orders agree between the "
                      "differential and the hand presentation"]
    assert "      t^6,t^6,t^5: presentations disagree" in out.splitlines()


@pytest.mark.parametrize(
    "args",
    [["--span", "3"], ["--m-max", "5"], ["--samples", "10"], ["--seed", "1"], ["--format"]],
    ids=["span", "m-max", "samples", "seed", "format"],
)
def test_reproduce_tables_takes_no_options(args):
    result = reproduce_tables(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unrecognized arguments" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [str(DATA.parent / "scripts" / "reproduce_tables.py")],
        ["-m", "arcinv.cli", "qpers", "--surface", str(DATA / "x2y3z6_surface.json"),
         "--arc", str(DATA / "arc_t6_t6_t5.json")],
    ],
    ids=["reproduce-tables", "cli"],
)
def test_a_stdout_closed_before_the_first_write_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=source_env(), timeout=120, check=False,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""
