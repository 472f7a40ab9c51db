"""End-to-end command coverage through the real entry point."""

import csv
import io
import stat
import subprocess
import sys

import pytest

from fpekit import Ssn, contains
from fpekit.cli import main

from experiments import synthetic_records

PIN4 = '{"type":"fixed","charsets":["0-9","0-9","0-9","0-9"]}'
SSN = '{"type":"ssn"}'
BAD_FMT = '{"type":"delim_var","min":1,"max":2,"alphabet":"ab","delim":"a"}'
RECORDS = (
    '{"type":"concat","delims":[","],"parts":['
    '{"type":"range","inner":{"type":"concat","parts":['
    '{"type":"fixed","charsets":["A-Z"]},'
    '{"type":"var","min":1,"max":7,"alphabet":"a-z"}]},'
    '"delim":" ","min":1,"max":3,"last_delimited":false},'
    '{"type":"range","inner":{"type":"concat","parts":['
    '{"type":"fixed","charsets":["A-Z"]},'
    '{"type":"var","min":1,"max":7,"alphabet":"a-z"}]},'
    '"delim":" ","min":1,"max":2,"last_delimited":false}]}'
)


@pytest.fixture
def run(capsys):
    def go(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


@pytest.fixture
def pin4(tmp_path):
    p = tmp_path / "pin4.json"
    p.write_text(PIN4)
    return str(p)


@pytest.fixture
def key(tmp_path, run):
    path = tmp_path / "k.hex"
    code, out, _ = run("keygen", "--out", str(path))
    assert code == 0
    return str(path)


def test_keygen_writes_hex(tmp_path, run):
    path = tmp_path / "key.hex"
    code, out, _ = run("keygen", "--bits", "128", "--out", str(path))
    assert code == 0
    assert out.strip() == str(path)
    text = path.read_text()
    assert text.endswith("\n")
    bytes.fromhex(text.strip())
    assert len(text.strip()) == 64


def test_keygen_never_overwrites_silently_and_is_owner_only(tmp_path, run):
    path = tmp_path / "key.hex"
    assert run("keygen", "--out", str(path))[0] == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    first = path.read_text()
    code, _, err = run("keygen", "--out", str(path))
    assert code != 0 and "--force" in err
    assert path.read_text() == first
    path.chmod(0o644)
    assert run("keygen", "--force", "--out", str(path))[0] == 0
    assert path.read_text() != first
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_keygen_force_replaces_a_symlink_and_leaves_its_target(tmp_path, run):
    target, path = tmp_path / "target.txt", tmp_path / "key.hex"
    target.write_text("not a key\n")
    target.chmod(0o644)
    path.symlink_to(target)
    assert run("keygen", "--force", "--out", str(path))[0] == 0
    assert target.read_text() == "not a key\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert not path.is_symlink() and path.is_file()
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert len(bytes.fromhex(path.read_text().strip())) == 32
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.hex", "target.txt"]


def test_keygen_rejects_other_sizes(tmp_path, run):
    code, _, err = run("keygen", "--bits", "192", "--out", str(tmp_path / "k"))
    assert code == 2


def test_validate_prints_size(pin4, run):
    code, out, _ = run("validate", "--format", pin4)
    assert code == 0
    assert out.strip() == "10000"


def test_validate_reports_problems(tmp_path, run):
    p = tmp_path / "bad.json"
    p.write_text(BAD_FMT)
    code, _, err = run("validate", "--format", str(p))
    assert code == 1
    assert "error: InvalidFormat" in err


def test_validate_gives_a_size_past_the_decimal_limit_by_its_bit_length(tmp_path, run):
    # 26 + 26**2 + ... + 26**4000 members: more digits than CPython writes
    p = tmp_path / "long.json"
    p.write_text('{"type":"var","min":1,"max":4000,"alphabet":"a-z"}')
    limit = sys.get_int_max_str_digits()
    code, out, err = run("validate", "--format", str(p))
    assert (code, out, err) == (0, "a 18802-bit number\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_a_rank_past_the_decimal_limit_is_a_bad_parameter(tmp_path, run):
    p = tmp_path / "long.json"
    p.write_text('{"type":"var","min":1,"max":4000,"alphabet":"a-z"}')
    code, out, err = run("rank", "--format", str(p), "--value", "z" * 4000)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: BadParameter: the rank, a 18802-bit number, has too many digits to print"]


def test_date_bounds_with_a_utc_offset_are_an_invalid_format(tmp_path, key, run):
    p = tmp_path / "date.json"
    p.write_text('{"type":"date","min":"2020-01-01T00:00:00+05:00",'
                 '"max":"2020-02-01T00:00:00+05:00"}')
    for args in (("validate",), ("encrypt", "--key", key, "--value", "02.01.2020"),
                 ("rank", "--value", "02.01.2020")):
        code, out, err = run(*args, "--format", str(p))
        assert code == 1 and out == "", args
        assert len(err.splitlines()) == 1 and err.startswith("error: InvalidFormat: "), args
        assert "UTC offset" in err


def test_missing_format_file_is_a_usage_error(run, tmp_path):
    code, _, err = run("validate", "--format", str(tmp_path / "nope.json"))
    assert code == 2


def test_rank_and_unrank(pin4, run):
    code, out, _ = run("rank", "--format", pin4, "--value", "0042")
    assert code == 0
    assert out.strip() == "2400"
    code, out, _ = run("unrank", "--format", pin4, "--rank", "2400")
    assert code == 0
    assert out.strip() == "0042"


def test_unrank_out_of_range(pin4, run):
    code, _, err = run("unrank", "--format", pin4, "--rank", "10000")
    assert code == 1
    assert "RankOutOfRange" in err


def test_rank_reads_stdin(pin4):
    proc = subprocess.run(
        [sys.executable, "-m", "fpekit.cli", "rank", "--format", pin4],
        input="0042\n",
        text=True,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2400\n"
    back = subprocess.run(
        [sys.executable, "-m", "fpekit.cli", "unrank", "--format", pin4,
         "--rank", proc.stdout.strip()],
        text=True,
        capture_output=True,
    )
    assert back.stdout == "0042\n"


def test_encrypt_decrypt_round_trip(pin4, key, run):
    code, out, _ = run("encrypt", "--format", pin4, "--key", key, "--value", "0042")
    assert code == 0
    ct = out.strip()
    assert len(ct) == 4 and ct.isdigit()
    code, out, _ = run("decrypt", "--format", pin4, "--key", key, "--value", ct)
    assert code == 0
    assert out.strip() == "0042"


def test_tweak_and_bound_change_ciphertext(pin4, key, run):
    values = ("0042", "1111", "9876", "0000", "5309")

    def batch(*extra):
        out = []
        for v in values:
            code, text, _ = run("encrypt", "--format", pin4, "--key", key,
                                "--value", v, *extra)
            assert code == 0
            out.append(text.strip())
        return out

    base = batch()
    assert base != batch("--tweak", "t")
    bounded = batch("--max-size", "100")
    assert base != bounded
    code, out, _ = run("decrypt", "--format", pin4, "--key", key,
                       "--value", bounded[0], "--max-size", "100")
    assert out.strip() == "0042"
    assert code == 0


def test_size_bound_spellings(pin4, key, run):
    for spelling in ("2^64", "10000000", "inf"):
        code, out, _ = run("encrypt", "--format", pin4, "--key", key,
                           "--value", "0042", "--max-size", spelling)
        assert code == 0
    code, _, err = run("encrypt", "--format", pin4, "--key", key,
                       "--value", "0042", "--max-size", "garbage")
    assert code == 2


def test_a_size_bound_below_2_is_a_usage_error(pin4, key, tmp_path, run):
    src = _csv_setup(tmp_path)
    for spelling in ("2^-1", "0", "1", "2^0", "-5"):
        code, out, err = run("encrypt", "--format", pin4, "--key", key,
                             "--value", "0042", "--max-size", spelling)
        assert (code, out) == (2, ""), spelling
        assert "below 2" in err
        code, _, err = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                           "--key", key, "--in", str(src), "--out", str(tmp_path / "o.csv"),
                           "--max-size", spelling)
        assert code == 2 and "below 2" in err, spelling
    assert run("encrypt", "--format", pin4, "--key", key, "--value", "0042",
               "--max-size", "2^1")[0] == 0


def test_a_size_bound_past_the_longest_repr_is_a_usage_error(pin4, key, run):
    # the fingerprint binds repr(max_size), which CPython refuses past 4,300
    # digits; 2^14285 is the least power of two past 10^4300
    for spelling in ("2^14285", "2^15000", "2^1000000000000"):
        code, out, err = run("encrypt", "--format", pin4, "--key", key,
                             "--value", "0042", "--max-size", spelling)
        assert (code, out) == (2, ""), spelling
        assert "not below 10^4300" in err and "Traceback" not in err
    assert run("encrypt", "--format", pin4, "--key", key, "--value", "0042",
               "--max-size", "2^14284")[0] == 0


def test_a_non_ascii_key_file_is_a_bad_parameter(pin4, tmp_path, run):
    path = tmp_path / "k.hex"
    path.write_bytes(b"\xe9" + b"ab" * 31)
    code, _, err = run("encrypt", "--format", pin4, "--key", str(path), "--value", "0042")
    assert code == 1
    assert err.count("\n") == 1
    assert "BadParameter" in err and "not a hex key file" in err
    assert "xe9" not in err and "233" not in err and "\xe9" not in err


def test_a_value_on_stdin_that_is_not_utf8_is_a_bad_parameter(pin4, key, run, monkeypatch):
    for command in (("rank",), ("encrypt", "--key", key), ("decrypt", "--key", key)):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"00\n4\xe9")))
        code, out, err = run(*command, "--format", pin4)
        assert (code, out) == (1, ""), command
        assert err.splitlines() == ["error: BadParameter: stdin: line 2 is not valid UTF-8"]


def test_encrypt_rejects_non_member(pin4, key, run):
    code, _, err = run("encrypt", "--format", pin4, "--key", key, "--value", "12a4")
    assert code == 1
    assert "NotInFormat" in err


CSV_BODY = "name,ssn,note\nAlice,123456789,x\nBob,001010001,y\n"


def _csv_setup(tmp_path):
    (tmp_path / "ssn.json").write_text(SSN)
    (tmp_path / "map.tsv").write_text("ssn\tssn.json\n")
    src = tmp_path / "in.csv"
    src.write_text(CSV_BODY)
    return src


def test_csv_round_trip_is_byte_exact(tmp_path, key, run):
    src = _csv_setup(tmp_path)
    enc = tmp_path / "enc.csv"
    dec = tmp_path / "dec.csv"
    code, _, _ = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                     "--key", key, "--in", str(src), "--out", str(enc))
    assert code == 0
    rows = enc.read_text().splitlines()
    assert rows[0] == "name,ssn,note"
    for line, original in zip(rows[1:], ("123456789", "001010001")):
        name, ssn_value, note = line.split(",")
        assert contains(Ssn(), ssn_value)
        assert ssn_value != original
    code, _, _ = run("decrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                     "--key", key, "--in", str(enc), "--out", str(dec))
    assert code == 0
    assert dec.read_bytes() == src.read_bytes()


def test_csv_out_naming_the_in_file_is_refused(tmp_path, key, run):
    src = _csv_setup(tmp_path)
    src.write_text("name,ssn\n" + "".join(f"n{i},{i:09d}\n" for i in range(2000)))
    before = src.read_bytes()
    link = tmp_path / "link.csv"
    link.symlink_to(src)
    for command in ("encrypt-csv", "decrypt-csv"):
        for out in (src, link):
            code, _, err = run(command, "--format-map", str(tmp_path / "map.tsv"),
                               "--key", key, "--in", str(src), "--out", str(out))
            assert code == 1 and "--in file" in err, (command, out)
            assert src.read_bytes() == before


def test_csv_errors_name_the_cell(tmp_path, key, run):
    _csv_setup(tmp_path)
    (tmp_path / "in.csv").write_text("name,ssn\nAlice,000121234\n")
    code, _, err = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                       "--key", key, "--in", str(tmp_path / "in.csv"),
                       "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "row 2, column ssn" in err
    assert "NotInFormat" in err
    assert "000121234" not in err


def test_csv_files_that_are_not_utf8_are_a_bad_parameter_naming_the_line(tmp_path, key, run):
    _csv_setup(tmp_path)
    src = tmp_path / "in.csv"
    # past the first chunk the reader decodes
    src.write_bytes(b"name,ssn\n" + b"Bob,123456789\n" * 3000 + b'Ren\xe9,123456789\n')
    common = ("--format-map", str(tmp_path / "map.tsv"), "--key", key, "--in", str(src),
              "--out", str(tmp_path / "o.csv"))
    for args in (("encrypt-csv", *common), ("decrypt-csv", *common),
                 ("analyze", "--dataset", str(src), "--scheme", "sgfpe",
                  "--out", str(tmp_path / "curve.csv"))):
        code, out, err = run(*args)
        assert code == 1 and out == "", args[0]
        assert err.splitlines() == [f"error: BadParameter: {src}: line 3002 is not valid UTF-8"]


def test_format_files_that_are_not_utf8_are_a_bad_parameter_naming_the_line(tmp_path, key, run):
    src = _csv_setup(tmp_path)
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_bytes(b'{"type":\n"fixed","charsets":["\xe9"]}')
    code, out, err = run("validate", "--format", str(bad_spec))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: BadParameter: {bad_spec}: line 2 is not valid UTF-8"]
    bad_map = tmp_path / "map.tsv"
    bad_map.write_bytes(b"ssn\tssn.json\nR\xe9\tssn.json\n")
    code, out, err = run("encrypt-csv", "--format-map", str(bad_map), "--key", key,
                         "--in", str(src), "--out", str(tmp_path / "o.csv"))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: BadParameter: {bad_map}: line 2 is not valid UTF-8"]


def _nested_ranges(depth):
    text = '{"type":"fixed","charsets":["a"]}'
    for _ in range(depth):
        text = f'{{"type":"range","inner":{text},"min":1,"max":1}}'
    return text


@pytest.mark.parametrize("text", ["[" * 5000, _nested_ranges(400)], ids=["json", "ranges"])
def test_a_format_nested_too_deeply_is_a_spec_syntax_error(tmp_path, run, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run("validate", "--format", str(p))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: SpecSyntaxError: nested too deeply"]


def test_csv_short_row_is_reported(tmp_path, key, run):
    _csv_setup(tmp_path)
    (tmp_path / "in.csv").write_text("note,ssn\nonly-one-field\n")
    code, _, err = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                       "--key", key, "--in", str(tmp_path / "in.csv"),
                       "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "row 2, column ssn" in err


def test_csv_missing_column(tmp_path, key, run):
    _csv_setup(tmp_path)
    (tmp_path / "in.csv").write_text("name,other\nAlice,1\n")
    code, _, err = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                       "--key", key, "--in", str(tmp_path / "in.csv"),
                       "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "BadParameter" in err


def test_an_empty_csv_has_no_header_row(tmp_path, key, run):
    _csv_setup(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    empty = str(tmp_path / "empty.csv")
    for args in (("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"), "--key", key,
                  "--in", empty),
                 ("analyze", "--scheme", "sgfpe", "--dataset", empty)):
        code, _, err = run(*args, "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "BadParameter" in err and "missing header row" in err


def test_analyze_missing_column(tmp_path, run):
    data = _write_dataset(tmp_path, n=5)
    code, _, err = run("analyze", "--dataset", str(data), "--scheme", "sgfpe",
                       "--column", "nosuch", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert "BadParameter" in err and "'nosuch' not in header" in err


def test_bad_format_map(tmp_path, key, run):
    src = _csv_setup(tmp_path)
    (tmp_path / "map.tsv").write_text("ssn ssn.json\n")
    code, _, err = run("encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                       "--key", key, "--in", str(src),
                       "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "BadParameter" in err


def test_a_format_map_naming_a_column_twice_is_refused(tmp_path, key, run):
    src = _csv_setup(tmp_path)
    (tmp_path / "pin4.json").write_text(PIN4)
    map_path = tmp_path / "map.tsv"
    map_path.write_text("ssn\tssn.json\n\nssn\tpin4.json\n")
    code, _, err = run("encrypt-csv", "--format-map", str(map_path),
                       "--key", key, "--in", str(src), "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert err.splitlines() == [
        f"error: BadParameter: {map_path}:3: column 'ssn' is mapped twice"]
    assert not (tmp_path / "o.csv").exists()


def test_column_tweak_separates_identical_columns(tmp_path, key, run):
    (tmp_path / "ssn.json").write_text(SSN)
    (tmp_path / "map.tsv").write_text("a\tssn.json\nb\tssn.json\n")
    (tmp_path / "in.csv").write_text("a,b\n123456789,123456789\n")

    def cells(flag):
        out = tmp_path / f"out{flag}.csv"
        args = ["encrypt-csv", "--format-map", str(tmp_path / "map.tsv"),
                "--key", key, "--in", str(tmp_path / "in.csv"), "--out", str(out)]
        if flag == "off":
            args.append("--no-column-tweak")
        assert main(args) == 0
        return out.read_text().splitlines()[1].split(",")

    a, b = cells("on")
    assert a != b
    a, b = cells("off")
    assert a == b


def _write_dataset(tmp_path, n=60):
    p = tmp_path / "data.csv"
    with open(p, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["value"])
        for record in synthetic_records(n, seed=11):
            writer.writerow([record])
    return p


def _read_curve(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fraction"
    pts = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return pts


def test_analyze_emits_monotone_curve(tmp_path, run):
    data = _write_dataset(tmp_path)
    out = tmp_path / "curve.csv"
    code, echoed, _ = run("analyze", "--dataset", str(data), "--scheme", "sgfpe",
                          "--out", str(out))
    assert code == 0
    assert echoed.strip() == str(out)
    pts = _read_curve(out)
    assert pts
    ts = [t for t, _ in pts]
    fs = [f for _, f in pts]
    assert ts == sorted(ts)
    assert all(a >= b for a, b in zip(fs, fs[1:]))


def test_analyze_gfpe_needs_format(tmp_path, run):
    data = _write_dataset(tmp_path, n=20)
    code, _, err = run("analyze", "--dataset", str(data), "--scheme", "gfpe",
                       "--out", str(tmp_path / "c.csv"))
    assert code == 2

    fmt = tmp_path / "records.json"
    fmt.write_text(RECORDS)
    out = tmp_path / "c.csv"
    code, _, _ = run("analyze", "--dataset", str(data), "--scheme", "gfpe",
                     "--format", str(fmt), "--max-size", "2^16", "--out", str(out))
    assert code == 0
    pts = _read_curve(out)
    fs = [f for _, f in pts]
    assert all(a >= b for a, b in zip(fs, fs[1:]))


def test_analyze_names_a_short_row(tmp_path, run):
    data = tmp_path / "data.csv"
    data.write_text("id,value\n1,Main St\n2\n")
    code, _, err = run("analyze", "--dataset", str(data), "--scheme", "sgfpe",
                       "--column", "value", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert "row 3, column value" in err and "row too short" in err


@pytest.mark.parametrize("scheme, cell, error", [
    ("gfpe", "Ann Lee,Par1s", "NotInFormat: a string of length 13 is not in the format"),
    ("sgfpe", "", "BadParameter: empty string has no signature"),
])
def test_analyze_names_the_row_and_column_of_a_refused_record(tmp_path, run, scheme, cell, error):
    fmt, data = tmp_path / "records.json", tmp_path / "data.csv"
    fmt.write_text(RECORDS)
    with open(data, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [["id", "value"], ["1", "Ann Lee,Paris"], ["2", cell], ["3", "Bo,Rome"]])
    code, _, err = run("analyze", "--dataset", str(data), "--scheme", scheme, "--format", str(fmt),
                       "--column", "value", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert f"row 3, column value: {error}" in err
    assert "Par1s" not in err


def test_bench_reports_expansion(tmp_path, run):
    (tmp_path / "orig.json").write_text('{"type":"integral","min":0,"max":6}')
    (tmp_path / "simp.json").write_text('{"type":"integral","min":0,"max":7}')
    out = tmp_path / "bench.csv"
    code, echoed, _ = run("bench", "--format", str(tmp_path / "orig.json"),
                          "--simplified", str(tmp_path / "simp.json"),
                          "--trials", "50", "--out", str(out))
    assert code == 0
    assert echoed.startswith("al_cy=")
    header, row = out.read_text().splitlines()
    assert header == "trials,al_cy,expansion,t_rank,t_int_enc,t_unrank,t_enc,walk_histogram"
    fields = row.split(",")
    assert fields[0] == "50"
    assert float(fields[1]) >= 1.0
    assert float(fields[2]) == pytest.approx(8 / 7)
    assert ":" in fields[-1]


def test_usage_error_on_missing_options(run):
    code, _, err = run("rank")
    assert code == 2
