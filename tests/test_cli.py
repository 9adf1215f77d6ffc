"""Command-line behaviors: output formats, resume, exit codes."""

import csv
import itertools
import json
import sys
import time
from pathlib import Path

import pytest
from oracles import is_prime

from sepvol import analysis, boundary, cli, estimator, exactform, quantum


# `sepvol constants` output, byte for byte; the CSV rows end in \r\n
CONSTANTS_M6_TEXT = """\
H_6                 = pi^15 / 35389440 = pi^15 / (2^18 * 3^3 * 5) = 0.809793712
D_6                 = pi^3 / 14294280 = pi^3 / (2^3 * 3 * 5 * 7^2 * 11 * 13 * 17) = 2.16913875e-06
V_6_total           = pi^18 / 505866564403200 = pi^18 / (2^21 * 3^4 * 5^2 * 7^2 * 11 * 13 * 17) = 1.75655492e-06
V_6_sep_conjectured = pi^15 / 13082761331670030 = pi^15 / (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43) = 2.19052731e-09
P_6_conjectured     = 990904320 / (25626846353 * pi^3) = 990904320 / (19 * 23 * 29 * 31 * 37 * 41 * 43 * pi^3) = 0.00124705882
"""

CONSTANTS_M8_TEXT = """\
H_8                 = pi^28 / 263006617337856000 = pi^28 / (2^37 * 3^7 * 5^3 * 7) = 0.000316395108
D_8                 = pi^4 / 1626164510023053000 = pi^4 / (2^3 * 3^5 * 5^3 * 7^2 * 11^2 * 13^2 * 17 * 19 * 23 * 29 * 31) = 5.99011296e-17
V_8_total           = pi^32 / 427692027016035198240049594368000000 = pi^32 / (2^40 * 3^12 * 5^6 * 7^3 * 11^2 * 13^2 * 17 * 19 * 23 * 29 * 31) = 1.89524244e-20
V_8_sep_conjectured = pi^28 / 23984823528925228172706521638692258396210 = pi^28 / (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79 * 83 * 89 * 97 * 101 * 103) = 3.46944421e-27
"""

CONSTANTS_M9_TEXT = """\
H_9                 = pi^36 / 1357366631815981301760000 = pi^36 / (2^51 * 3^9 * 5^4 * 7^2) = 5.81698908e-07
D_9                 = 1180591620717411303424 * pi^4 / 46683388828018458123811535524310654110415465625 = 1180591620717411303424 * pi^4 / (3^5 * 5^5 * 7^4 * 11^4 * 13^3 * 17^2 * 19^2 * 23^2 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79) = 2.46341064e-24
V_9_total           = 524288 * pi^40 / 28140367482995298907061337645328327273693795553091796875 = 524288 * pi^40 / (3^14 * 5^9 * 7^6 * 11^4 * 13^3 * 17^2 * 19^2 * 23^2 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79) = 1.43296328e-30
V_9_sep_conjectured = pi^36 / 1492182350939279320058875736615841068547583863326864530410 = pi^36 / (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79 * 83 * 89 * 97 * 101 * 103 * 107 * 109 * 113 * 127 * 131 * 137 * 139 * 149) = 5.29143564e-40
"""

CONSTANTS_M4_CSV = """\
name,plain,factored,value
H_4,pi^6 / 96,pi^6 / (2^5 * 3),10.0144708
D_4,2 * pi^2 / 35,2 * pi^2 / (5 * 7),0.563977394
V_4_total,pi^8 / 1680,pi^8 / (2^4 * 3 * 5 * 7),5.64793513
V_4_sep_conjectured,pi^6 / 2310,pi^6 / (2 * 3 * 5 * 7 * 11),0.416185798
P_4_conjectured,8 / (11 * pi^2),8 / (11 * pi^2),0.0736881336
"""

CONSTANTS_M9_CSV = """\
name,plain,factored,value
H_9,pi^36 / 1357366631815981301760000,pi^36 / (2^51 * 3^9 * 5^4 * 7^2),5.81698908e-07
D_9,1180591620717411303424 * pi^4 / 46683388828018458123811535524310654110415465625,1180591620717411303424 * pi^4 / (3^5 * 5^5 * 7^4 * 11^4 * 13^3 * 17^2 * 19^2 * 23^2 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79),2.46341064e-24
V_9_total,524288 * pi^40 / 28140367482995298907061337645328327273693795553091796875,524288 * pi^40 / (3^14 * 5^9 * 7^6 * 11^4 * 13^3 * 17^2 * 19^2 * 23^2 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79),1.43296328e-30
V_9_sep_conjectured,pi^36 / 1492182350939279320058875736615841068547583863326864530410,pi^36 / (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73 * 79 * 83 * 89 * 97 * 101 * 103 * 107 * 109 * 113 * 127 * 131 * 137 * 139 * 149),5.29143564e-40
"""


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_constants_text_m4(capsys):
    assert cli.main(["constants", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "pi^8 / 1680" in out
    assert "H_4" in out and "P_4_conjectured" in out
    assert "8 / (11 * pi^2)" in out


def test_constants_text_m6_probability(capsys):
    assert cli.main(["constants", "--m", "6"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("P_6_conjectured"))
    value = float(line.split("=")[-1])
    assert value == pytest.approx(0.00124706, abs=5e-9)


def test_constants_json(capsys):
    assert cli.main(["constants", "--m", "6", "--format", "json"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    by_name = {r["name"]: r for r in rows}
    assert by_name["V_6_sep_conjectured"]["value"] == pytest.approx(2.190527309e-9)
    assert by_name["H_6"]["factored"] == "pi^15 / (2^18 * 3^3 * 5)"


@pytest.mark.parametrize("m, golden", [(6, CONSTANTS_M6_TEXT), (8, CONSTANTS_M8_TEXT),
                                       (9, CONSTANTS_M9_TEXT)])
def test_constants_text_golden(capsys, m, golden):
    assert cli.main(["constants", "--m", str(m)]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("m, golden", [(4, CONSTANTS_M4_CSV), (9, CONSTANTS_M9_CSV)])
def test_constants_csv_golden(capsys, m, golden):
    assert cli.main(["constants", "--m", str(m), "--format", "csv"]) == 0
    assert capsys.readouterr().out == golden.replace("\n", "\r\n")


def test_constants_unsupported_m(capsys):
    assert cli.main(["constants", "--m", "5"]) == 2


# `sepvol estimate --deviation` CSV headers; the per-form column names are the
# form labels, which checkpoints and downstream readers depend on
ESTIMATE_HEADERS = {
    6: ("n,est_D,est_H,est_DH,est_V,sep_vol_block3,sep_vol_block2,sep_prob_block3,"
        "sep_prob_block2,mean_neg,mean_logneg,degenerate,dev_D,dev_H,dev_V"),
    8: ("n,est_D,est_H,est_DH,est_V,ppt_vol_factors2x2x2t0,ppt_vol_factors2x2x2t1,"
        "ppt_vol_factors2x2x2t2,ppt_prob_factors2x2x2t0,ppt_prob_factors2x2x2t1,"
        "ppt_prob_factors2x2x2t2,mean_neg,mean_logneg,degenerate,dev_D,dev_H,dev_V"),
}


@pytest.mark.parametrize("m", sorted(ESTIMATE_HEADERS))
def test_estimate_deviation_header_golden(tmp_path, m):
    out = tmp_path / "est.csv"
    assert cli.main(["estimate", "--m", str(m), "--points", "20", "--deviation",
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ESTIMATE_HEADERS[m]


def test_estimate_csv(tmp_path):
    out = str(tmp_path / "est.csv")
    rc = cli.main(["estimate", "--m", "4", "--points", "2000",
                   "--checkpoint-every", "1000", "--seed", "7", "--out", out])
    assert rc == 0
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == ["1000", "2000"]
    direct, _ = estimator.run(estimator.RunConfig(4, 2000, 1000, seed=7))
    assert float(rows[1]["est_V"]) == direct[1].est_V
    assert float(rows[1]["sep_vol_block2"]) == direct[1].est_V_sep[0]
    assert float(rows[1]["sep_prob_block2"]) == direct[1].est_P[0]
    assert int(rows[1]["degenerate"]) == direct[1].degenerate


def test_estimate_json_matches_csv(tmp_path):
    argv = ["estimate", "--m", "4", "--points", "1000", "--seed", "3"]
    c, j = str(tmp_path / "a.csv"), str(tmp_path / "a.jsonl")
    assert cli.main(argv + ["--out", c]) == 0
    assert cli.main(argv + ["--out", j, "--format", "json"]) == 0
    crow = _read_csv(c)[0]
    jrow = json.loads(Path(j).read_text().splitlines()[0])
    for key, val in jrow.items():
        assert float(crow[key]) == float(val)


def test_estimate_deviation_columns(tmp_path):
    out = str(tmp_path / "est.csv")
    assert cli.main(["estimate", "--m", "4", "--points", "1000",
                     "--out", out, "--deviation"]) == 0
    row = _read_csv(out)[0]
    assert {"dev_D", "dev_H", "dev_V"} <= set(row)
    assert float(row["dev_V"]) == pytest.approx(float(row["est_V"]) / 5.647935129 - 1,
                                                abs=1e-9)


def _expected_columns(row: estimator.CheckpointRow, m: int) -> dict:
    # built from the in-process row, the forms table and the exact constants
    exp = {"n": row.n, "est_D": row.est_D, "est_H": row.est_H, "est_DH": row.est_DH,
           "est_V": row.est_V, "mean_neg": row.mean_neg, "mean_logneg": row.mean_logneg,
           "degenerate": row.degenerate,
           "dev_D": row.est_D / exactform.diagonal_volume(m).to_real() - 1.0,
           "dev_H": row.est_H / exactform.truncated_haar_volume(m).to_real() - 1.0,
           "dev_V": row.est_V / exactform.total_volume(m).to_real() - 1.0}
    for i, form in enumerate(quantum.forms_for(m)):
        kind = "sep" if form.decides_separability else "ppt"
        exp[f"{kind}_vol_{form.label}"] = row.est_V_sep[i]
        exp[f"{kind}_prob_{form.label}"] = row.est_P[i]
    return exp


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("m", [6, 8])
def test_estimate_every_column_carries_its_own_value(tmp_path, m, fmt):
    out = tmp_path / "est.out"
    assert cli.main(["estimate", "--m", str(m), "--points", "3000", "--checkpoint-every",
                     "1500", "--deviation", "--format", fmt, "--out", str(out)]) == 0
    got = _read_csv(out) if fmt == "csv" else [json.loads(l) for l in out.read_text().splitlines()]
    rows, _ = estimator.run(estimator.RunConfig(m, 3000, 1500, estimator.DEFAULT_SEED))
    assert len(got) == len(rows) == 2
    for cells, row in zip(got, rows):
        exp = _expected_columns(row, m)
        assert set(cells) == set(exp)  # the column order is pinned by ESTIMATE_HEADERS
        # the per-form values differ, so a column swap cannot go unseen
        per_form = [v for k, v in exp.items() if "_vol_" in k or "_prob_" in k]
        assert len(set(per_form)) == len(per_form)
        for name, value in exp.items():
            assert float(cells[name]) == value, name


def test_estimate_m9_reports_ppt_columns(tmp_path):
    out = str(tmp_path / "est.csv")
    assert cli.main(["estimate", "--m", "9", "--points", "200", "--out", out]) == 0
    row = _read_csv(out)[0]
    assert "ppt_vol_factors3x3t1" in row
    assert "ppt_prob_factors3x3t1" in row
    assert "sep_vol_factors3x3t1" not in row


def test_estimate_resume_appends_nothing_when_complete(tmp_path):
    out = str(tmp_path / "est.csv")
    ck = str(tmp_path / "state.ck")
    argv = ["estimate", "--m", "4", "--points", "2000", "--checkpoint-every",
            "1000", "--out", out, "--checkpoint-file", ck]
    assert cli.main(argv) == 0
    first = Path(out).read_text()
    assert cli.main(argv) == 0
    assert Path(out).read_text() == first
    assert len(first.splitlines()) == 3  # header + 2 rows


def test_estimate_resume_into_missing_out_exits_2(tmp_path, capsys):
    ck = str(tmp_path / "state.ck")
    argv = ["estimate", "--m", "4", "--points", "2000", "--checkpoint-every",
            "1000", "--checkpoint-file", ck]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    capsys.readouterr()
    b = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(b)]) == 2
    assert "--out" in capsys.readouterr().err
    assert not b.exists()
    assert cli.main(argv + ["--out", "-"]) == 0  # stdout stays allowed


def test_estimate_damaged_checkpoint_into_missing_out_leaves_no_file(tmp_path):
    ck = tmp_path / "state.ck"
    argv = ["estimate", "--m", "4", "--points", "2000", "--checkpoint-file", str(ck)]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    ck.write_text(ck.read_text()[:120])
    b = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(b)]) == 2
    assert not b.exists()


def test_estimate_checkpoint_mismatch_exits_2(tmp_path):
    out = str(tmp_path / "est.csv")
    ck = str(tmp_path / "state.ck")
    base = ["estimate", "--m", "4", "--points", "2000", "--out", out,
            "--checkpoint-file", ck]
    assert cli.main(base) == 0
    assert cli.main(base[:3] + ["--seed", "5"] + base[3:]) == 2


def test_estimate_damaged_checkpoint_exits_2(tmp_path, capsys):
    out = str(tmp_path / "est.csv")
    ck = str(tmp_path / "state.ck")
    base = ["estimate", "--m", "4", "--points", "2000", "--out", out,
            "--checkpoint-file", ck]
    assert cli.main(base) == 0
    with open(ck) as fh:
        text = fh.read()
    sums = next(l for l in text.splitlines() if l.startswith("sums "))
    damaged = [text[:120],   # cut inside the canonical line
               text[:-3],    # cut inside the last line
               text.replace(sums, sums.rsplit(" ", 1)[0])]  # one sum missing
    for bad in damaged:
        with open(ck, "w") as fh:
            fh.write(bad)
        assert cli.main(base) == 2
        assert ck in capsys.readouterr().err


@pytest.mark.parametrize("old_format", ["sepvol-checkpoint-1", "sepvol-checkpoint-2",
                                        "sepvol-checkpoint-3", "sepvol-checkpoint-4"])
def test_estimate_format_1_checkpoint_exits_2(tmp_path, capsys, old_format):
    """Files of an earlier checkpoint format are refused, not resumed."""
    out = str(tmp_path / "est.csv")
    ck = str(tmp_path / "state.ck")
    base = ["estimate", "--m", "4", "--points", "2000", "--out", out,
            "--checkpoint-file", ck]
    assert cli.main(base) == 0
    with open(ck) as fh:
        text = fh.read()
    with open(ck, "w") as fh:
        fh.write(text.replace(estimator.CHECKPOINT_FORMAT, old_format))
    assert cli.main(base) == 2
    assert "unrecognized checkpoint format" in capsys.readouterr().err


def test_estimate_workers_2_byte_identical(tmp_path):
    argv = ["estimate", "--m", "4", "--points", "8192", "--checkpoint-every", "4096",
            "--deviation"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_bad_config_exits_2(tmp_path):
    rc = cli.main(["estimate", "--m", "4", "--points", "10",
                   "--checkpoint-every", "100", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("m", sorted(quantum.DIMENSIONS))
def test_one_separability_rule(tmp_path, capsys, m):
    """The column prefix, the P_m row and conjectured_probability follow one rule:
    PPT decides separability for the 2x2 and 2x3 splits only (Horodecki 1996)."""
    decides = m in (4, 6)
    out = tmp_path / "est.csv"
    assert cli.main(["estimate", "--m", str(m), "--points", "20", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert {c.split("_")[0] for c in header if "_vol_" in c} == {"sep" if decides else "ppt"}
    assert cli.main(["constants", "--m", str(m)]) == 0
    assert (f"P_{m}_conjectured" in capsys.readouterr().out) == decides
    if decides:
        assert exactform.conjectured_probability(m).to_real() > 0
    else:
        with pytest.raises(exactform.UnsupportedDimensionError):
            exactform.conjectured_probability(m)


def test_estimate_checkpoint_every_0_exits_2(capsys):
    rc = cli.main(["estimate", "--m", "4", "--points", "5000", "--checkpoint-every", "0"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_estimate_negative_skip_leaves_out_untouched(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("n,est_D\n1000,0.5\n")
    assert cli.main(["estimate", "--m", "4", "--points", "1000", "--skip", "-1",
                     "--out", str(out)]) == 2
    assert out.read_text() == "n,est_D\n1000,0.5\n"


@pytest.mark.parametrize("cmd, content", [
    ("estimate", "n,est_D\n1000,0.5\n"),
    ("boundary", "bases,feasible,roots,area\n512,40,41,9.5\n")])
def test_negative_seed_exits_2_and_leaves_out_untouched(tmp_path, capsys, cmd, content):
    out = tmp_path / "rows.csv"
    out.write_text(content)
    before = out.read_bytes()
    assert cli.main([cmd, "--m", "4", "--points", "100", "--seed", "-1",
                     "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_estimate_unwritable_out_exits_3():
    rc = cli.main(["estimate", "--m", "4", "--points", "10",
                   "--out", "/nonexistent-dir/x.csv"])
    assert rc == 3


def test_boundary_csv(tmp_path):
    out = str(tmp_path / "area.csv")
    rc = cli.main(["boundary", "--m", "4", "--points", "50", "--out", out])
    assert rc == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "bases,feasible,roots,area"
    rows = _read_csv(out)
    assert rows[-1]["bases"] == "50"
    assert int(rows[-1]["feasible"]) <= 50
    assert float(rows[-1]["area"]) > 0


def test_boundary_zero_points_exits_2(tmp_path):
    assert cli.main(["boundary", "--m", "6", "--points", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("grid", ["0", "1"])
def test_boundary_grid_below_2_exits_2(tmp_path, grid):
    assert cli.main(["boundary", "--m", "4", "--points", "50", "--grid", grid,
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_boundary_grid_at_cap_exits_0(tmp_path):
    out = tmp_path / "area.csv"
    assert cli.main(["boundary", "--m", "4", "--points", "1", "--grid", str(boundary.GRID_MAX),
                     "--out", str(out)]) == 0
    assert out.read_text().startswith("bases,feasible,roots,area\n1,")


@pytest.mark.parametrize("option, value", [("--grid", "1"), ("--grid", "1025"), ("--m", "5"),
                                           ("--free-index", "99"), ("--points", "0"),
                                           ("--skip", "-1"), ("--skip", str(2**63 - 1))])
def test_boundary_bad_input_leaves_out_untouched(tmp_path, option, value):
    out = tmp_path / "area.csv"
    out.write_text("bases,feasible,roots,area\n512,40,41,9.5\n")
    argv = {"--m": "4", "--points": "50", "--out": str(out), option: value}
    assert cli.main(["boundary"] + [x for kv in argv.items() for x in kv]) == 2
    assert out.read_text() == "bases,feasible,roots,area\n512,40,41,9.5\n"


def test_boundary_unwritable_out_exits_3():
    assert cli.main(["boundary", "--m", "4", "--points", "10",
                     "--out", "/nonexistent-dir/area.csv"]) == 3


def test_iso_check_text_and_json(capsys):
    argv = ["iso-check", "--d", "35", "--v-total", "1.77407e-6",
            "--v-sep", "2.40672e-9", "--a-sep", "1.094257e-6"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    w_line = next(l for l in text.splitlines() if l.startswith("w = "))
    assert cli.main(argv + ["--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(w_line.split("=")[1]) == rep["w"]
    assert rep["holds"] is True


def test_iso_check_from_csv(tmp_path, capsys):
    out = str(tmp_path / "est.csv")
    assert cli.main(["estimate", "--m", "4", "--points", "1000", "--out", out]) == 0
    row = _read_csv(out)[0]
    assert cli.main(["iso-check", "--d", "15", "--csv", out,
                     "--a-sep", "1.0", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["alpha"] == pytest.approx(
        float(row["sep_vol_block2"]) / float(row["est_V"]), rel=1e-12)


def test_iso_check_csv_with_ppt_volumes_exits_2(tmp_path, capsys):
    """At m = 8 the volume columns are PPT volumes, which are no separable volume."""
    out = str(tmp_path / "est.csv")
    assert cli.main(["estimate", "--m", "8", "--points", "100", "--out", out]) == 0
    assert cli.main(["iso-check", "--d", "63", "--csv", out, "--a-sep", "1.0"]) == 2
    assert "PPT volumes" in capsys.readouterr().err


def test_iso_check_csv_d_must_match_its_m(tmp_path, capsys):
    out = str(tmp_path / "est.csv")
    assert cli.main(["estimate", "--m", "4", "--points", "100", "--out", out]) == 0
    assert cli.main(["iso-check", "--csv", out, "--a-sep", "1.0"]) == 2  # default --d 35
    assert "--d must be 15" in capsys.readouterr().err


@pytest.mark.parametrize("ragged", ["short", "long"])
def test_iso_check_csv_ragged_last_row_exits_2(tmp_path, capsys, ragged):
    """A last row cut short mid-write, or one with a field too many, exits 2 without a traceback."""
    out = tmp_path / "est.csv"
    assert cli.main(["estimate", "--m", "4", "--points", "100", "--out", str(out)]) == 0
    text = out.read_text()
    extra = "1,2" if ragged == "short" else text.splitlines()[-1] + ",7"
    out.write_text(text + extra + "\n")
    assert cli.main(["iso-check", "--d", "15", "--csv", str(out), "--a-sep", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "field count" in err and "Traceback" not in err


def test_iso_check_overflow_exits_4(capsys):
    argv = ["iso-check", "--d", "2000", "--v-total", "1", "--v-sep", "0.5", "--a-sep", "1"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("sepvol: ") and "Traceback" not in err


def test_iso_check_missing_inputs_exits_2():
    assert cli.main(["iso-check", "--v-total", "1.0", "--a-sep", "1.0"]) == 2


def test_ntheory_outputs(capsys):
    assert cli.main(["ntheory", "totient", "2310"]) == 0
    assert capsys.readouterr().out.strip() == "480"
    assert cli.main(["ntheory", "sigma", "6", "1"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert cli.main(["ntheory", "labos", "14#", "19"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli.main(["ntheory", "limit-term", "4"]) == 0
    assert capsys.readouterr().out.strip().startswith("2.1465")


def test_ntheory_primorial_argument(capsys):
    assert cli.main(["ntheory", "totient", "3#"]) == 0  # totient(30)
    assert capsys.readouterr().out.strip() == "8"


def test_ntheory_json(capsys):
    assert cli.main(["ntheory", "labos", "2310", "4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"op": "labos", "args": ["2310", "4"], "value": True}


def test_ntheory_exponent_over_bit_budget_exits_2(capsys):
    assert cli.main(["ntheory", "labos", "2", "524289"]) == 2
    assert "k=524289" in capsys.readouterr().err


def test_ntheory_over_caps_exits_2(capsys):
    """A prime count over PRIME_COUNT_MAX, or a prime above TRIAL_DIVISOR_MAX squared, exits 2
    instead of filling memory or dividing for hours."""
    count = str(exactform.PRIME_COUNT_MAX + 1)
    for argv in (["limit-term", count], ["totient", count + "#"], ["labos", count + "#", "1"]):
        assert cli.main(["ntheory", *argv]) == 2
        assert count in capsys.readouterr().err
    cap = exactform.TRIAL_DIVISOR_MAX
    prime = str(next(n for n in itertools.count(cap * cap + 1) if is_prime(n)))
    for argv in (["totient", prime], ["sigma", prime, "1"]):
        assert cli.main(["ntheory", *argv]) == 2
        assert str(cap) in capsys.readouterr().err


def test_ntheory_prints_past_4300_digits(capsys):
    """totient(3000#) has 11,828 digits, past Python's default limit on int-to-str conversion."""
    want = analysis.totient(exactform.primorial(3000))
    limit = sys.get_int_max_str_digits()
    assert cli.main(["ntheory", "totient", "3000#"]) == 0
    text = capsys.readouterr().out
    assert cli.main(["ntheory", "totient", "3000#", "--format", "json"]) == 0
    line = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit  # lifted for the one conversion only
    sys.set_int_max_str_digits(0)
    try:
        assert text == f"{want}\n"
        assert json.loads(line)["value"] == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_ntheory_parses_past_4300_digits(capsys):
    """totient(7^5916): a 5,000-digit argument, past Python's default limit on str-to-int conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text, want = str(7**5916), f"{6 * 7**5915}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(text) == 5000
    assert cli.main(["ntheory", "totient", text]) == 0
    assert sys.get_int_max_str_digits() == limit  # lifted for each conversion only
    assert capsys.readouterr().out == want


def test_ntheory_argument_over_digit_cap_exits_2_fast(capsys):
    t0 = time.perf_counter()
    assert cli.main(["ntheory", "totient", "7" * (cli.NTHEORY_DIGITS_MAX + 1)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and f"{cli.NTHEORY_DIGITS_MAX}-digit cap" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ntheory_result_over_digit_cap_exits_2_fast(capsys, fmt):
    """sigma_30000(8#) has about 209,600 digits: over the cap, it exits 2 without converting."""
    t0 = time.perf_counter()
    assert cli.main(["ntheory", "sigma", "8#", "30000", "--format", fmt]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and f"{cli.NTHEORY_DIGITS_MAX}-digit cap" in captured.err


def test_ntheory_arity_error_exits_2(capsys):
    assert cli.main(["ntheory", "labos", "5"]) == 2
