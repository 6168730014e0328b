import hashlib

import pytest

from congwidth import cli
from congwidth.cli import main
from congwidth.errors import NoUnitFound
from congwidth.matrices import SqMatrix, elementary, format_matrix
from congwidth.reduction import serialize_trace, sl2_unit_reduction
from congwidth.rings import Ideal, RingSpec


def write_matrix(path, m):
    path.write_text(format_matrix(m))


def test_reduce_and_replay(tmp_path, capsys):
    Z = RingSpec.integers()
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(Z, 3, 1, 2, 2))
    out = tmp_path / "trace.txt"
    rc = main([
        "reduce", "--ring", "Z", "--ideal", "2",
        "--in", str(infile), "--target", "1,2", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().startswith("congwidth-trace v2")
    rc = main(["replay", "--in", str(out)])
    assert rc == 0
    assert "replay ok" in capsys.readouterr().out


def test_reduce_nontrivial_and_corrupted_replay(tmp_path, capsys):
    Z = RingSpec.integers()
    sigma = (
        elementary(Z, 3, 2, 1, 2)
        * elementary(Z, 3, 1, 3, 4)
        * elementary(Z, 3, 3, 2, -2)
    )
    infile = tmp_path / "m.txt"
    write_matrix(infile, sigma)
    out = tmp_path / "trace.txt"
    assert main([
        "reduce", "--ring", "Z", "--ideal", "2",
        "--in", str(infile), "--target", "2,3", "--out", str(out),
    ]) == 0

    text = out.read_text()
    lines = text.splitlines()
    idx = lines.index("M2") + 2
    entries = lines[idx].split()
    entries[0] = str(int(entries[0]) + 2)
    lines[idx] = " ".join(entries)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["replay", "--in", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "replay mismatch at step" in err


def test_reduce_deterministic_bytes(tmp_path):
    Z = RingSpec.integers()
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(Z, 3, 2, 1, 4))
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["reduce", "--ring", "Z", "--ideal", "2", "--in", str(infile), "--target", "1,3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_sl2_side(tmp_path):
    # in dimension 2 the target picks the unit shortcut's side
    L5 = RingSpec.localized_integers(5)
    q = Ideal.of(L5, 2)
    sigma = SqMatrix.from_raw(L5, [[1, 2], [2, 5]])
    infile = tmp_path / "m.txt"
    write_matrix(infile, sigma)
    out = tmp_path / "t.txt"
    for target, side in (("1,2", "E12"), ("2,1", "E21")):
        rc = main([
            "reduce", "--ring", "Z[1/5]", "--ideal", "2", "--in", str(infile),
            "--target", target, "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == serialize_trace(sl2_unit_reduction(sigma, q, side)).encode()
        assert main(["replay", "--in", str(out)]) == 0


def test_reduce_sl2_refusals(tmp_path, capsys):
    Z9 = RingSpec.integers_mod(9)
    infile = tmp_path / "m.txt"
    write_matrix(infile, SqMatrix.from_raw(Z9, [[4, 3], [0, 7]]))  # conjugation collapses: no unit
    args = ["reduce", "--ring", "Z/9", "--ideal", "3", "--in", str(infile), "--target"]
    for target, side in (("1,2", "E12"), ("2,1", "E21")):
        assert main(args + [target]) == 1
        assert capsys.readouterr().err == (
            f"error: no unit in the configured search space produces a nontrivial {side} element\n"
        )
    for target in ("1,3", "2,2"):
        assert main(args + [target]) == 1
        assert capsys.readouterr().err == f"error: dimension 2 reduces to target 1,2 or 2,1, got {target}\n"
    with pytest.raises(SystemExit) as exc:
        main(args + ["1,2", "--side", "E12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --side E12" in capsys.readouterr().err


def test_sl2_refusal_names_its_side_in_the_api_and_the_cli(tmp_path, capsys):
    # the E21 side searches through theta in the one builder, so the API's
    # refusal names E21 and the CLI prints it as it is
    Z, Z9 = RingSpec.integers(), RingSpec.integers_mod(9)
    cases = ((SqMatrix.from_raw(Z, [[3, 2], [4, 3]]), "2"), (SqMatrix.from_raw(Z9, [[4, 3], [0, 7]]), "3"))
    infile = tmp_path / "m.txt"
    for sigma, ideal in cases:
        write_matrix(infile, sigma)
        for target, side in (("1,2", "E12"), ("2,1", "E21")):
            with pytest.raises(NoUnitFound) as exc:
                sl2_unit_reduction(sigma, Ideal.of(sigma.ring, int(ideal)), side)
            assert str(exc.value) == f"no unit in the configured search space produces a nontrivial {side} element"
            args = ["reduce", "--ring", sigma.ring.descriptor(), "--ideal", ideal, "--in", str(infile)]
            assert main(args + ["--target", target]) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--ring", "Z/0", "--ideal", "2", "--in", "x", "--target", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--group", "GL3,F2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    Z = RingSpec.integers()
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(Z, 3, 1, 2, 1))  # not congruent mod 2
    rc = main([
        "reduce", "--ring", "Z", "--ideal", "2", "--in", str(infile), "--target", "1,2",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_decompose(tmp_path, capsys):
    Z = RingSpec.integers()
    infile = tmp_path / "m.txt"
    g = elementary(Z, 3, 1, 2, 3) * elementary(Z, 3, 2, 3, -1)
    write_matrix(infile, g)
    rc = main(["decompose", "--in", str(infile)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified=true" in out
    assert "factor" in out


def test_norm_config(tmp_path, capsys):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(
        "tag=filtration\nring=Z\nn=3\nideal=2\ncap=64\nsamples=120\nseed=5\n"
    )
    rc = main(["norm", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "axiom=positivity samples=120 violations=0" in out
    assert "axiom=conjugation samples=120 violations=0" in out


def test_norm_config_skips_blank_lines_and_comments(tmp_path):
    # the same report bytes as the pinned z2mixed config without them
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text("# a z2mixed norm\ntag=z2mixed\n\n   \n  # p is the prime\np=2\n")
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NORM_REPORT_SHA256["tag=z2mixed\np=2\n"]


def test_norm_config_z2(tmp_path, capsys):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("tag=z2mixed\np=2\nsamples=150\nseed=3\n")
    assert main(["norm", "--config", str(cfg)]) == 0
    assert "violations=0" in capsys.readouterr().out


def test_census_cli(tmp_path):
    out = tmp_path / "census.csv"
    rc = main(["census", "--group", "SL2,F3", "--ideal", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[1] == "sigma_index,min_ops,min_len,target"
    assert "summary" in text


def test_census_factors_cli(tmp_path):
    out = tmp_path / "factors.csv"
    rc = main(["census", "--group", "SL2,F2", "--factors", "--out", str(out)])
    assert rc == 0
    assert "max=" in out.read_text()


def test_sumid_cli(capsys):
    assert main(["sumid", "--tuple", "3,1,-2,5,0"]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["sumid", "--random", "50", "--seed", "9"]) == 0


def test_sumid_reports_the_first_mismatch(monkeypatch, capsys):
    # the first unequal tuple is printed with both sides, and no later one is checked
    lhs, rhs = ((1, 0), (0, 1)), ((2, 0), (0, 1))
    monkeypatch.setattr(cli, "verify_sum_identity", lambda *t: (False, lhs, rhs))
    assert main(["sumid", "--tuple", "3,1,-2,5,0", "--random", "4"]) == 1
    assert capsys.readouterr().out == "MISMATCH tuple=(3, 1, -2, 5, 0) lhs=((1, 0), (0, 1)) rhs=((2, 0), (0, 1))\n"


def test_sumset_cli(tmp_path):
    out = tmp_path / "sumset.txt"
    rc = main([
        "sumset", "--mod", "8", "--gen-scale", "2", "--max-terms", "4",
        "--target-level", "4", "--out", str(out),
    ])
    assert rc == 0
    assert "covered_at=" in out.read_text()


def test_census_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    args = ["census", "--group", "SL2,F3", "--ideal", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sumset_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    args = [
        "sumset", "--mod", "8", "--gen-scale", "2",
        "--max-terms", "4", "--target-level", "4",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_census_with_proper_ideal_reports_unreachable(tmp_path):
    # over Z/4 with the ideal (2), some targets are genuinely out of reach
    out = tmp_path / "c.csv"
    rc = main(["census", "--group", "SL2,Z/4", "--ideal", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "unreachable" in text
    assert "unreachable_pairs=" in text


def test_budget_flag_must_be_positive():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--group", "SL2,F2", "--budget", "0"])
    assert exc.value.code == 2


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("config, key", [
    ("tag=filtration\nring=Z\n", "ideal"),
    ("tag=word\n", "group"),
    ("tag=z2mixed\n", "p"),
    ("tag=padic-sup\nideal=2\n", "p"),
])
def test_norm_config_missing_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(config)
    assert main(["norm", "--config", str(cfg)]) == 1
    assert f"needs {key}=" in _one_line_error(capsys)


@pytest.mark.parametrize("config, message", [
    ("tag=z2mixed\np=0\n", "p-adic norms need a prime p, got 0"),
    ("tag=padic-sup\nideal=2\np=0\n", "p-adic norms need a prime p, got 0"),
    ("tag=padic-sup\nring=F2[x]\nideal=1,1\np=2\n", "the p-adic sup norm needs an ideal of Z, not of F2[x]"),
    ("tag=z2mixed\np=2\nsamples=0\n", "samples must be >= 1, got 0"),
    ("tag=z2mixed\np=2\nsamples=-5\n", "samples must be >= 1, got -5"),
    ("tag=padic-sup\nideal=0\np=2\n", "ideal pair domain needs a nonzero ideal"),
    ("tag=dirac\nradius=-1\n", "radius must be >= 0, got -1"),
    ("tag=filtration\nideal=2\nradius=-3\n", "radius must be >= 0, got -3"),
    ("tag=z2mixed\np=2\nbox=-1\n", "box must be >= 0, got -1"),
    ("tag=padic-sup\nideal=2\np=2\nbox=-64\n", "box must be >= 0, got -64"),
    # 0 samples only the identity, where every norm passes
    ("tag=dirac\nradius=0\n", "norm config radius=0 samples only the identity"),
    ("tag=filtration\nideal=2\nradius=0\n", "norm config radius=0 samples only the identity"),
    ("tag=z2mixed\np=2\nbox=0\n", "norm config box=0 samples only the identity"),
    ("tag=padic-sup\nideal=2\np=2\nbox=0\n", "norm config box=0 samples only the identity"),
    ("tag=bogus\n", "unknown norm tag 'bogus'"),
])
def test_norm_config_bad_value(tmp_path, capsys, config, message):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(config)
    assert main(["norm", "--config", str(cfg)]) == 1
    assert _one_line_error(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("group", ["SLx,F5", "GL2,F5", "SL2", "SL2,Q", "SL2,F4", "SL2,F9"])
def test_norm_config_bad_group(tmp_path, capsys, group):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(f"tag=word\ngroup={group}\nsamples=10\n")
    assert main(["norm", "--config", str(cfg)]) == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("group", ["SL2,F1", "SL2,Z/1"])
def test_group_reports_the_ring_error(tmp_path, capsys, group):
    # the SL<n>,<ring> form is right: the ring's own error is reported
    with pytest.raises(SystemExit) as exc:
        main(["census", "--group", group])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "modulus must be >= 2" in err and "must look like" not in err
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(f"tag=word\ngroup={group}\nsamples=10\n")
    assert main(["norm", "--config", str(cfg)]) == 1
    assert _one_line_error(capsys) == "error: modulus must be >= 2\n"


@pytest.mark.parametrize("group", ["GL2,F5", "SL2", "SLx,F5"])
def test_group_reports_a_malformed_form(tmp_path, capsys, group):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--group", group])
    assert exc.value.code == 2
    assert f"group must look like 'SL3,F2', got {group!r}" in capsys.readouterr().err
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(f"tag=word\ngroup={group}\nsamples=10\n")
    assert main(["norm", "--config", str(cfg)]) == 1
    assert "must look like" in _one_line_error(capsys)


@pytest.mark.parametrize("group", ["SL2,F4", "SL2,F9", "SL3,F6"])
def test_census_refuses_a_non_prime_field(capsys, group):
    # F_4 and F_9 are fields, but not Z/4 and Z/9: refused rather than misread
    with pytest.raises(SystemExit) as exc:
        main(["census", "--group", group])
    assert exc.value.code == 2
    assert "not a field" in capsys.readouterr().err


def test_census_accepts_a_prime_field(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["census", "--group", "SL2,F5", "--factors", "--out", str(out)]) == 0
    assert out.read_text().startswith("# congwidth census group=SL2,Z/5 ")


@pytest.mark.parametrize("group, ideal", [("SL2,F2", "0"), ("SL2,Z/4", "0"), ("SL3,F2", "0 0")])
def test_census_refuses_the_zero_ideal(tmp_path, capsys, group, ideal):
    out = tmp_path / "c.csv"
    assert main(["census", "--group", group, "--ideal", ideal, "--out", str(out)]) == 1
    assert "nonzero ideal" in _one_line_error(capsys)
    assert not out.exists()


# sha256 of the CLI word-norm report on SL2,F5 (1000 samples), by seed; the
# index-based finite domain must reproduce the reports of the matrix-based one
WORD_REPORT_SHA256 = {
    0: "b281d4874a09849443ddf7d5551a9d66b8eae784bd87e846efaaa56184087bfd",
    1: "1cd1485ab278772aec2109cefb6df7157974673c3e49d1ec36ce354a2c422d74",
    2: "7d69923c6aea10c621e7c42cda095cb3afc691c0f8811fece3306eae832faacc",
}


@pytest.mark.parametrize("seed", sorted(WORD_REPORT_SHA256))
def test_norm_word_report_bytes(tmp_path, seed):
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text(f"tag=word\ngroup=SL2,F5\nsamples=1000\nseed={seed}\n")
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORD_REPORT_SHA256[seed]


# sha256 of the CLI filtration report on SL3(Z), ideal 2, cap 64 (1000
# samples), by seed
FILTRATION_REPORT_SHA256 = {
    0: "503383ef8990175b4fa13de56e6c6af246730bfd61515bee0973ee446c31e91a",
    1: "cff2d33ff8b819b15ac603aa272e43cc983c463c164ac4ba7323bb1d2a194aa8",
    2: "88ebf4930bbd8487c147d912e8c5123bcb97095c69003572293a9574143dec1b",
}


@pytest.mark.parametrize("seed", sorted(FILTRATION_REPORT_SHA256))
def test_norm_filtration_report_bytes(tmp_path, seed):
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text(f"tag=filtration\nring=Z\nn=3\nideal=2\ncap=64\nsamples=1000\nseed={seed}\n")
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FILTRATION_REPORT_SHA256[seed]


# sha256 of the CLI report (1000 samples, seed 0) of each remaining norm tag
NORM_REPORT_SHA256 = {
    "tag=dirac\n": "0dbe4b5c1cdff35e914c146653f30269fa1b19bd6a778ac3ec58636884eb2cb2",
    "tag=z2mixed\np=2\n": "d7f255dbd2a4c671bff033a4c9f2ec3b2c9d3122b745cdc0ba2f1e124d4e1f87",
    "tag=padic-sup\nideal=2\np=2\n": "bf7437ad62ebb803128c7a8bc1caca9429f4a36f5afe95ba58fd51e20b4a8447",
}


@pytest.mark.parametrize("config", sorted(NORM_REPORT_SHA256), ids=lambda c: c.replace("\n", " ").strip())
def test_norm_report_bytes(tmp_path, config):
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text(config)
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NORM_REPORT_SHA256[config]


# -- ideal syntax: whitespace-separated generators in the ring's element format


def test_reduce_reads_an_f2x_ideal_as_one_polynomial(tmp_path, capsys):
    # 0,1 is x: the unit entry of E12(1) is outside (x), so the input is refused
    P2 = RingSpec.poly_over_fp(2)
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(P2, 3, 1, 2, 1))
    rc = main(["reduce", "--ring", "F2[x]", "--ideal", "0,1", "--in", str(infile), "--target", "1,2"])
    assert rc == 1
    assert _one_line_error(capsys) == "error: input is not congruent to I modulo the ideal\n"


def test_reduce_writes_the_ideal_as_it_reads_it(tmp_path):
    P2 = RingSpec.poly_over_fp(2)
    infile, out = tmp_path / "m.txt", tmp_path / "trace.txt"
    write_matrix(infile, elementary(P2, 3, 1, 2, P2.x()))
    args = ["reduce", "--ring", "F2[x]", "--ideal", "0,1", "--in", str(infile), "--target", "1,2"]
    assert main(args + ["--out", str(out)]) == 0
    assert "\nideal 0,1\n" in out.read_text()
    assert main(["replay", "--in", str(out)]) == 0


def test_norm_filtration_over_f2x(tmp_path, capsys):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("tag=filtration\nring=F2[x]\nn=3\nideal=0,1\nsamples=200\n")
    assert main(["norm", "--config", str(cfg)]) == 0
    assert "axiom=definiteness samples=200 violations=0" in capsys.readouterr().out


def test_census_ideal_generators_are_space_separated(tmp_path):
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["census", "--group", "SL2,Z/8", "--ideal", "2", "--out", str(one)]) == 0
    assert main(["census", "--group", "SL2,Z/8", "--ideal", "2 4", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_a_comma_list_over_z_is_refused(tmp_path, capsys):
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(RingSpec.integers(), 3, 1, 2, 2))
    rc = main(["reduce", "--ring", "Z", "--ideal", "2,4", "--in", str(infile), "--target", "1,2"])
    assert rc == 1
    assert "ideal generator '2,4' is not an element of Z" in _one_line_error(capsys)


def test_an_empty_matrix_file_is_refused(tmp_path, capsys):
    infile = tmp_path / "m.txt"
    infile.write_text("")
    rc = main(["reduce", "--ring", "Z", "--ideal", "2", "--in", str(infile), "--target", "1,2"])
    assert rc == 1
    assert "matrix header" in _one_line_error(capsys)


def test_norm_config_repeated_key(tmp_path, capsys):
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text("tag=dirac\nsamples=10\nsamples=20\n")
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: norm config repeats samples=\n"
    assert not out.exists()


def test_norm_config_unknown_keys(tmp_path, capsys):
    cfg, out = tmp_path / "norm.cfg", tmp_path / "report.txt"
    cfg.write_text("tag=dirac\nsample=7\nsede=3\n")
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: norm config tag=dirac has unknown keys sample=, sede=\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--ring", "Z", "--ideal", "2", "--in", "m.txt", "--target", "1-2"],
     "argument --target: target must be 'i,j', got '1-2'"),
    (["census", "--group", "SL2,F2", "--budget", "x"], "argument --budget: expected an integer, got 'x'"),
])
def test_usage_errors_print_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # argparse's usage lines, then exactly one error line, and no traceback
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]], err
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err


def test_reduce_refuses_a_matrix_over_another_ring(tmp_path, capsys):
    infile = tmp_path / "m.txt"
    write_matrix(infile, elementary(RingSpec.integers_mod(4), 3, 1, 2, 2))
    assert main(["reduce", "--ring", "Z", "--ideal", "2", "--in", str(infile), "--target", "1,2"]) == 1
    assert _one_line_error(capsys) == "error: matrix ring does not match --ring\n"


@pytest.mark.parametrize("argv, message", [
    (["sumid", "--tuple", "1,2,3"], "--tuple needs five integers m,a,b,c,d"),
    (["sumid"], "supply --tuple or --random"),
])
def test_sumid_domain_errors(capsys, argv, message):
    assert main(argv) == 1
    assert _one_line_error(capsys) == f"error: {message}\n"
