"""Command-line interface: outputs, schema, exit codes."""

import json

import pytest

from k1alex.cli import main

from test_stabilization import STABILIZED_5_2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.split() == ["3_1", "4_1", "5_2"]


def test_compute_figure8_double_cover_json(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--format", "json", "--precision", "10")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["group"] == "Z/5"
    assert data["invertible"] == "yes"
    assert data["logs"]["2"] == "-3/2*[1] + -1*[x] + -1*[x^2]"
    assert data["metafinite_poly"] == \
        "(1)*t^-2 + (-3 - x - x^2 - x^3 - x^4) + (1)*t^2"
    assert data["precision"] == 10


def test_compute_figure8_double_cover_printed_strings(capsys, monkeypatch):
    """Pins the delta, delta_unit and logs strings at the default precision."""
    monkeypatch.delenv("K1ALEX_PRECISION", raising=False)
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["precision"] == 24
    assert data["delta"] == (
        "(1)*tau^-1 + (-2 - x^3) + (1 + x^2 - x^4)*tau + "
        "(x - x^3)*tau^2 + (x^2 - x^4)*tau^3 + (x - x^3)*tau^4 + "
        "(x^2 - x^4)*tau^5 + (x - x^3)*tau^6 + (x^2 - x^4)*tau^7 + "
        "(x - x^3)*tau^8 + (x^2 - x^4)*tau^9 + (x - x^3)*tau^10 + "
        "(x^2 - x^4)*tau^11 + (x - x^3)*tau^12 + (x^2 - x^4)*tau^13 + "
        "(x - x^3)*tau^14 + (x^2 - x^4)*tau^15 + (x - x^3)*tau^16 + "
        "(x^2 - x^4)*tau^17 + (x - x^3)*tau^18 + (x^2 - x^4)*tau^19 + "
        "(x - x^3)*tau^20 + (x^2 - x^4)*tau^21 + (x - x^3)*tau^22 + "
        "O(tau^23)")
    assert data["delta_unit"] == "(1)*tau^-1"
    assert data["logs"] == {
        "2": "-3/2*[1] + -1*[x] + -1*[x^2]",
        "4": "-11/4*[1] + -9/2*[x] + -9/2*[x^2]",
        "6": "-11*[1] + -64/3*[x] + -64/3*[x^2]",
        "8": "-443/8*[1] + -441/4*[x] + -441/4*[x^2]",
        "10": "-3027/10*[1] + -605*[x] + -605*[x^2]",
        "12": "-10369/6*[1] + -3456*[x] + -3456*[x^2]",
        "14": "-142131/14*[1] + -142129/7*[x] + -142129/7*[x^2]",
        "16": "-974171/16*[1] + -974169/8*[x] + -974169/8*[x^2]",
        "18": "-1112843/3*[1] + -6677056/9*[x] + -6677056/9*[x^2]",
        "20": "-45765227/20*[1] + -9153045/2*[x] + -9153045/2*[x^2]",
        "22": "-313679523/22*[1] + -313679521/11*[x] + -313679521/11*[x^2]",
    }


# Whole JSON reports at the default precision, byte for byte.
PINNED_JSON = {
    "compute --knot 3_1 --cover 6":
    {"schema_version": 1,
     "knot": "3_1",
     "cover": 6,
     "precision": 24,
     "group": "trivial",
     "kappa": [],
     "kappa_order": 1,
     "images": ["1", "1"],
     "free_rank": 2,
     "invertible": "yes",
     "delta": "(-1)*tau^-1 + (1) + (-1)*tau + O(tau^23)",
     "delta_unit": "(-1)*tau^-1",
     "logs": {"1": "-1*[1]",
              "2": "1/2*[1]",
              "3": "2/3*[1]",
              "4": "1/4*[1]",
              "5": "-1/5*[1]",
              "6": "-1/3*[1]",
              "7": "-1/7*[1]",
              "8": "1/8*[1]",
              "9": "2/9*[1]",
              "10": "1/10*[1]",
              "11": "-1/11*[1]",
              "12": "-1/6*[1]",
              "13": "-1/13*[1]",
              "14": "1/14*[1]",
              "15": "2/15*[1]",
              "16": "1/16*[1]",
              "17": "-1/17*[1]",
              "18": "-1/9*[1]",
              "19": "-1/19*[1]",
              "20": "1/20*[1]",
              "21": "2/21*[1]",
              "22": "1/22*[1]",
              "23": "-1/23*[1]"},
     "metafinite_poly": "(1)*t^-6 + (-2) + (1)*t^6"},
    "compute --knot 5_2 --cover 3":
    {"schema_version": 1,
     "knot": "5_2",
     "cover": 3,
     "precision": 24,
     "group": "Z/5 + Z/5",
     "kappa": [[1, 1], [2, 3]],
     "kappa_order": 3,
     "images": ["x*y^2", "x*y^3"],
     "free_rank": 0,
     "invertible": "yes",
     "delta": "(x^3*y + x^4*y)*tau^-1 + (-x^3*y - x^3*y^2 - x^4*y^4) + (x + "
              "x^3*y^2)*tau + O(tau^23)",
     "delta_unit": "(x^3*y + x^4*y)*tau^-1",
     "logs": {"3": "-5/8*[1] + 1/8*[y] + 1/8*[y^2] + 1/8*[y^3] + 1/8*[y^4] + "
                   "1/8*[x] + 1/8*[x*y] + 1/8*[x^2*y^2] + 1/8*[x^3]",
              "6": "-121/384*[1] + 7/128*[y] + 7/128*[y^2] + 7/128*[y^3] + "
                   "7/128*[y^4] + 7/128*[x] + 7/128*[x*y] + 7/128*[x^2*y^2] + "
                   "7/128*[x^3]",
              "9": "-341/1536*[1] + 1/1536*[y] + 1/1536*[y^2] + 1/1536*[y^3] + "
                   "1/1536*[y^4] + 1/1536*[x] + 1/1536*[x*y] + 1/1536*[x^2*y^2] + "
                   "1/1536*[x^3]",
              "12": "-7625/49152*[1] + 567/16384*[y] + 567/16384*[y^2] + "
                    "567/16384*[y^3] + 567/16384*[y^4] + 567/16384*[x] + "
                    "567/16384*[x*y] + 567/16384*[x^2*y^2] + 567/16384*[x^3]",
              "15": "-20837/163840*[1] + 605/32768*[y] + 605/32768*[y^2] + "
                    "605/32768*[y^3] + 605/32768*[y^4] + 605/32768*[x] + "
                    "605/32768*[x*y] + 605/32768*[x^2*y^2] + 605/32768*[x^3]",
              "18": "-522265/4718592*[1] + 2023/1572864*[y] + 2023/1572864*[y^2] + "
                    "2023/1572864*[y^3] + 2023/1572864*[y^4] + 2023/1572864*[x] + "
                    "2023/1572864*[x*y] + 2023/1572864*[x^2*y^2] + "
                    "2023/1572864*[x^3]",
              "21": "-1293941/14680064*[1] + 312481/14680064*[y] + "
                    "312481/14680064*[y^2] + 312481/14680064*[y^3] + "
                    "312481/14680064*[y^4] + 312481/14680064*[x] + "
                    "312481/14680064*[x*y] + 312481/14680064*[x^2*y^2] + "
                    "312481/14680064*[x^3]"},
     "metafinite_poly": "(2 + x + x*y^2 + x^2*y^2 + x^3*y^3 + x^4 + x^4*y^3)*t^-3 "
                        "+ (-3 + y + y^2 + y^3 + y^4 - x + x*y - x*y^2 + x*y^3 + "
                        "x*y^4 + x^2 + x^2*y - x^2*y^2 + x^2*y^3 + x^2*y^4 + x^3 + "
                        "x^3*y + x^3*y^2 - x^3*y^3 + x^3*y^4 - x^4 + x^4*y + "
                        "x^4*y^2 - x^4*y^3 + x^4*y^4) + (2 + x + x*y^2 + x^2*y^2 + "
                        "x^3*y^3 + x^4 + x^4*y^3)*t^3"},
    "fibered --knot 5_2 --covers 2,3":
    {"schema_version": 1,
     "knot": "5_2",
     "covers": [2, 3],
     "precision": 24,
     "verdicts": {"2": "invertible", "3": "invertible"},
     "summary": "no obstruction found: consistent-with-fibered"},
    # genus 2: Fox words with inverse letters, elimination inverting 4 pivots
    "compute --presentation s5_2.txt --cover 3 --precision 10":
    {"schema_version": 1,
     "knot": "s5_2.txt",
     "cover": 3,
     "precision": 10,
     "group": "Z/5 + Z/5",
     "kappa": [[1, 1], [2, 3]],
     "kappa_order": 3,
     "images": ["y^3", "x^4*y^3", "1", "y"],
     "free_rank": 0,
     "invertible": "yes",
     "delta": "(y^3 + x^2*y^4)*tau^-1 + (-13/11 - 4/11*y + 4/11*y^2 + 17/11*y^3 - "
              "4/11*y^4 + 10/11*x + 1/11*x*y - 4/11*x*y^2 - 12/11*x*y^3 - "
              "6/11*x*y^4 - 6/11*x^2 + 9/11*x^2*y + 3/11*x^2*y^2 + 1/11*x^2*y^3 - "
              "7/11*x^2*y^4 - 16/11*x^3*y - 12/11*x^3*y^2 + 3/11*x^3*y^3 + "
              "3/11*x^3*y^4 + 1/11*x^4 + x^4*y + 2/11*x^4*y^2 - 15/11*x^4*y^3 + "
              "1/11*x^4*y^4) + (-3/11 + 3/11*y - 3/11*y^2 - 12/11*y^3 + 5/11*y^4 + "
              "1/11*x + 5/11*x*y + 15/11*x*y^2 + 14/11*x*y^3 - 8/11*x*y^4 + "
              "14/11*x^2 - x^2*y^2 - 6/11*x^2*y^3 + 6/11*x^2*y^4 - 6/11*x^3 - "
              "6/11*x^3*y + 3/11*x^3*y^2 - 4/11*x^3*y^3 - 5/11*x^3*y^4 + 9/11*x^4 "
              "- 8/11*x^4*y - 6/11*x^4*y^2 + 2*x^4*y^3 + 3/11*x^4*y^4)*tau + "
              "(-2/11 - 10/11*y - 2/11*y^2 + y^3 + 3/11*y^4 + 16/11*x*y + "
              "7/11*x*y^2 - 6/11*x*y^3 + 5/11*x*y^4 + 2/11*x^2 - 7/11*x^2*y + "
              "3/11*x^2*y^2 - 6/11*x^2*y^3 - 3/11*x^2*y^4 - 13/11*x^3*y - "
              "9/11*x^3*y^2 + 15/11*x^3*y^3 + 7/11*x^3*y^4 - 10/11*x^4 + "
              "7/11*x^4*y + 6/11*x^4*y^2 - 5/11*x^4*y^3 - 9/11*x^4*y^4)*tau^2 + "
              "(-1 + 98/121*y + 79/121*y^2 + 16/121*y^3 - 171/121*y^4 + 196/121*x "
              "- 1/11*x*y + 62/121*x*y^2 - 36/121*x*y^3 + 141/121*x*y^4 + "
              "4/121*x^2 + 140/121*x^2*y - 217/121*x^2*y^2 - 166/121*x^2*y^3 - "
              "58/121*x^2*y^4 - 86/121*x^3 - 244/121*x^3*y + 41/121*x^3*y^2 + "
              "167/121*x^3*y^3 + 89/121*x^3*y^4 + 12/121*x^4 + 59/121*x^4*y + "
              "49/121*x^4*y^2 - 57/121*x^4*y^3 + 14/121*x^4*y^4)*tau^3 + (191/121 "
              "+ 134/121*y + 75/121*y^2 + 24/121*y^3 + 184/121*y^4 - 13/121*x - "
              "30/121*x*y + 26/121*x*y^2 + 23/121*x*y^3 - 46/121*x*y^4 - "
              "48/121*x^2 - 79/121*x^2*y - 10/11*x^2*y^2 - x^2*y^3 + 4/121*x^2*y^4 "
              "+ 95/121*x^3 - 84/121*x^3*y - 40/121*x^3*y^2 + 108/121*x^3*y^3 + "
              "43/121*x^3*y^4 - 211/121*x^4 - 6/121*x^4*y + 20/121*x^4*y^2 + "
              "15/121*x^4*y^3 - 14/11*x^4*y^4)*tau^4 + (146/121 + 79/121*y - "
              "63/121*y^2 - 71/121*y^3 - 58/121*y^4 - 199/121*x*y + 9/121*x*y^2 - "
              "28/121*x*y^3 + 141/121*x*y^4 - 2/121*x^2 + 90/121*x^2*y - "
              "31/121*x^2*y^2 + 120/121*x^2*y^3 - 78/121*x^2*y^4 - 122/121*x^3 - "
              "291/121*x^3*y - 75/121*x^3*y^2 + 104/121*x^3*y^3 + 32/121*x^3*y^4 - "
              "189/121*x^4 + 247/121*x^4*y + 282/121*x^4*y^2 + 3/11*x^4*y^3 - "
              "76/121*x^4*y^4)*tau^5 + (2944/1331 + 1775/1331*y + 2063/1331*y^2 - "
              "2127/1331*y^3 - 1685/1331*y^4 - 728/1331*x - 1570/1331*x*y - "
              "4542/1331*x*y^2 - 700/1331*x*y^3 + 3877/1331*x*y^4 + 62/121*x^2 - "
              "515/1331*x^2*y - 510/1331*x^2*y^2 + 529/1331*x^2*y^3 - "
              "1924/1331*x^2*y^4 - 2966/1331*x^3 - 250/121*x^3*y + "
              "2780/1331*x^3*y^2 + 875/1331*x^3*y^3 + 1720/1331*x^3*y^4 + "
              "663/1331*x^4 + 3702/1331*x^4*y - 182/1331*x^4*y^2 + "
              "607/1331*x^4*y^3 - 2018/1331*x^4*y^4)*tau^6 + (2004/1331 + "
              "2641/1331*y - 1061/1331*y^2 - 2899/1331*y^3 + 633/1331*y^4 + "
              "665/1331*x - 3427/1331*x*y - 1850/1331*x*y^2 + 1365/1331*x*y^3 + "
              "355/1331*x*y^4 - 3860/1331*x^2 - 1860/1331*x^2*y + 82/1331*x^2*y^2 "
              "- 60/121*x^2*y^3 - 58/121*x^2*y^4 + 1889/1331*x^3 + 1154/1331*x^3*y "
              "- 252/1331*x^3*y^2 + 848/1331*x^3*y^3 - 215/1331*x^3*y^4 - "
              "95/121*x^4 + 423/1331*x^4*y + 3051/1331*x^4*y^2 + 2194/1331*x^4*y^3 "
              "+ 463/1331*x^4*y^4)*tau^7 + O(tau^8)",
     "delta_unit": "(y^3 + x^2*y^4)*tau^-1",
     "logs": {"3": "-5/8*[1] + 1/8*[y] + 1/8*[y^2] + 1/8*[y^3] + 1/8*[y^4] + "
                   "1/8*[x] + 1/8*[x*y] + 1/8*[x^2*y^2] + 1/8*[x^3]",
              "6": "-121/384*[1] + 7/128*[y] + 7/128*[y^2] + 7/128*[y^3] + "
                   "7/128*[y^4] + 7/128*[x] + 7/128*[x*y] + 7/128*[x^2*y^2] + "
                   "7/128*[x^3]"},
     "metafinite_poly": "(2 + y^2 + y^3 + x^2*y + x^2*y^3 + x^3*y^2 + "
                        "x^3*y^4)*t^-3 + (-3 + y - y^2 - y^3 + y^4 + x + x*y + "
                        "x*y^2 + x*y^3 + x*y^4 + x^2 - x^2*y + x^2*y^2 - x^2*y^3 + "
                        "x^2*y^4 + x^3 + x^3*y - x^3*y^2 + x^3*y^3 - x^3*y^4 + x^4 "
                        "+ x^4*y + x^4*y^2 + x^4*y^3 + x^4*y^4) + (2 + y^2 + y^3 + "
                        "x^2*y + x^2*y^3 + x^3*y^2 + x^3*y^4)*t^3"},
}


@pytest.mark.parametrize("command", list(PINNED_JSON),
                         ids=["3_1-N6", "5_2-N3", "fibered-5_2", "s5_2-N3"])
def test_json_output_pinned(capsys, monkeypatch, tmp_path, command):
    monkeypatch.delenv("K1ALEX_PRECISION", raising=False)
    (tmp_path / "s5_2.txt").write_text(STABILIZED_5_2)
    monkeypatch.chdir(tmp_path)  # the report names the file by its basename
    code, out, _ = run(capsys, *command.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(PINNED_JSON[command], indent=2) + "\n"


def test_compute_trefoil_sixfold_polynomial(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "3_1", "--cover", "6",
                       "--format", "json", "--precision", "8")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "trivial"
    assert data["metafinite_poly"] == "(1)*t^-6 + (-2) + (1)*t^6"


def test_text_and_json_report_same_values(capsys):
    code, text_out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                            "--precision", "10")
    assert code == 0
    code, json_out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                            "--format", "json", "--precision", "10")
    data = json.loads(json_out)
    assert data["metafinite_poly"] in text_out
    for value in data["logs"].values():
        assert value in text_out


def test_cover_subcommand(capsys):
    code, out, _ = run(capsys, "cover", "--knot", "4_1", "-N", "2")
    assert code == 0
    assert "H = Z/5" in out and "[[4]]" in out
    code, out, _ = run(capsys, "cover", "--knot", "4_1", "-N", "3")
    assert "H = Z/4 + Z/4" in out
    code, out, _ = run(capsys, "cover", "--knot", "5_2", "-N", "3")
    assert "H = Z/5 + Z/5" in out


def test_fibered_subcommand(capsys):
    code, out, _ = run(capsys, "fibered", "--knot", "3_1", "--covers", "2,3,6",
                       "--precision", "8")
    assert code == 0
    assert out.count("invertible") >= 3 and "not-invertible" not in out
    code, out, _ = run(capsys, "fibered", "--knot", "5_2", "--covers", "3",
                       "--precision", "8")
    assert code == 0
    assert "no obstruction found" in out
    assert "non-fibered" not in out


def test_fibered_repeated_cover_exits_2(capsys):
    code, out, err = run(capsys, "fibered", "--knot", "3_1", "--covers", "2,2,3",
                         "--format", "json")
    assert code == 2
    assert err == "k1alex: cover degree 2 is listed twice\n"
    assert out == ""


def test_unknown_knot_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--knot", "9_99", "--cover", "2")
    assert code == 2
    # the KeyError's message, not its repr in quotes
    assert err == ("k1alex: unknown knot '9_99'; "
                   "available: ['3_1', '4_1', '5_2']\n")


def test_bad_presentation_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.knot"
    bad.write_text("genus 1\ny1 = x3 ; z1 = x1\ny2 = x2 ; z2 = x2\n")
    code, out, err = run(capsys, "compute", "--presentation", str(bad), "--cover", "2")
    assert code == 2
    assert "out of range" in err
    assert out == ""  # no partial output on the error path


def test_presentation_file_roundtrip(tmp_path, capsys):
    from k1alex import builtin, serialize_presentation
    path = tmp_path / "fig8.knot"
    path.write_text(serialize_presentation(builtin("4_1")))
    code, out, _ = run(capsys, "cover", "--presentation", str(path), "-N", "2")
    assert code == 0 and "Z/5" in out


def test_low_precision_rejected(capsys):
    code, _, err = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--precision", "4")
    assert code == 2
    assert "at least 8" in err


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("K1ALEX_PRECISION", "9")
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["precision"] == 9


def test_env_precision_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("K1ALEX_PRECISION", "abc")
    code, out, err = run(capsys, "compute", "--knot", "3_1", "--cover", "2")
    assert code == 2
    assert "K1ALEX_PRECISION" in err and "'abc'" in err and out == ""


def test_cover_degree_must_be_at_least_two(capsys):
    code, _, err = run(capsys, "compute", "--knot", "4_1", "--cover", "1")
    assert code == 2
    assert ">= 2" in err


def test_rep_construction_failure_exits_3(capsys, monkeypatch):
    import k1alex.cli as cli
    from k1alex import MetabelianRepError

    def boom(p, n):
        raise MetabelianRepError("synthetic failure")

    monkeypatch.setattr(cli, "metabelian_rep", boom)
    code, out, err = run(capsys, "compute", "--knot", "4_1", "--cover", "2")
    assert code == 3
    assert "synthetic failure" in err and out == ""


def test_yes_without_delta_reports_null(capsys, monkeypatch):
    """A "yes" from a stalled elimination has no delta: the report shows
    null delta and no logs, and the command succeeds."""
    import k1alex.cli as cli
    from k1alex.k1core import K1Report

    monkeypatch.setattr(cli, "k1_invariant",
                        lambda p, rep, k: K1Report("yes", k, note="stalled"))
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["invertible"] == "yes"
    assert data["delta"] is None and data["delta_unit"] is None
    assert data["logs"] == {}
