"""Command-line interface: outputs, schema, exit codes."""

import json

from k1alex.cli import main


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


def test_unknown_knot_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--knot", "9_99", "--cover", "2")
    assert code == 2
    assert "unknown knot" in err


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


def test_strict_indeterminate_exits_4(capsys, monkeypatch):
    import k1alex.cli as cli
    from k1alex.k1core import K1Report

    monkeypatch.setattr(cli, "k1_invariant",
                        lambda p, rep, k: K1Report("indeterminate", k))
    code, out, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                       "--strict", "--format", "json")
    assert code == 4
    assert json.loads(out)["invertible"] == "indeterminate"
    # without --strict the same report exits 0
    code, _, _ = run(capsys, "compute", "--knot", "4_1", "--cover", "2",
                     "--format", "json")
    assert code == 0
