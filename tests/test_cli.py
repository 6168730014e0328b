import hashlib

import pytest

from congwidth.cli import main
from congwidth.matrices import elementary, format_matrix
from congwidth.rings import RingSpec


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
    assert out.read_text().startswith("congwidth-trace v1")
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
    L5 = RingSpec.localized_integers(5)
    from congwidth.matrices import SqMatrix

    infile = tmp_path / "m.txt"
    write_matrix(infile, SqMatrix.from_raw(L5, [[1, 0], [2, 1]]))
    out = tmp_path / "t.txt"
    rc = main([
        "reduce", "--ring", "Z[1/5]", "--ideal", "2", "--in", str(infile),
        "--target", "1,2", "--side", "E12", "--out", str(out),
    ])
    assert rc == 0
    assert "kind sl2" in out.read_text()
    assert main(["replay", "--in", str(out)]) == 0


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


@pytest.mark.parametrize("group, ideal", [("SL2,F2", "0"), ("SL2,Z/4", "0"), ("SL3,F2", "0,0")])
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
