import hashlib
import json
import random
import re
import subprocess
import sys

import pytest

from qq22 import geometry
from qq22.cli import run
from qq22.serial import (
    CacheError,
    load_cache,
    poly_from_str,
    poly_to_str,
    save_cache,
)
from qq22.engine import CorrelatorEngine
from qq22.model import check_dimension

from fractions import Fraction


def run_capture(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_correlator_golden(capsys):
    rc, out, _ = run_capture(
        capsys, ["correlator", "--n", "4", "--tau-index", "0,0,7,0,0,0,0,0,0,0,0,0"]
    )
    assert rc == 0
    assert out.strip() == "46656"


def test_correlator_symbolic(capsys):
    rc, out, _ = run_capture(
        capsys,
        ["correlator", "--n", "6", "--tau-index", "0,0,0,0,0,0,0,2,2,2,2,2,2,2,0,0"],
    )
    assert rc == 0
    assert out.strip() == "8*x^2-2"


def test_special_expr_f4(capsys):
    for n, expected in (
        ("4", "11/16+5/8*x"),
        ("6", "19303/16+39/8*x"),
        ("8", "6441821/4+135/2*x"),
    ):
        rc, out, _ = run_capture(capsys, ["special-expr", "--n", n, "--target", "f"])
        assert rc == 0
        assert out.strip() == expected


def test_correlator_json_schema(capsys):
    rc, out, _ = run_capture(
        capsys,
        [
            "correlator",
            "--n",
            "4",
            "--t-index",
            "0,0,0,2,1,0,0,0,0,0,0,0",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["basis"] == "t"
    assert doc["index"] == [0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0]
    assert doc["value"]["poly"] == [["192", "0"]]
    assert doc["beta"] == 2


def test_conjecture_command(capsys):
    rc, out, _ = run_capture(capsys, ["conjecture", "--n", "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["lhs"] == "2*x^2-1/2"
    assert doc["residual"] == "0"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["correlator", "--n", "4"])
    assert exc.value.code == 2
    rc, _, err = run_capture(
        capsys, ["correlator", "--n", "4", "--tau-index", "1,2"]
    )
    assert rc == 2
    assert "error" in err


def test_semisimple_command(capsys):
    rc, out, _ = run_capture(
        capsys,
        ["semisimple", "--n", "4", "--samples", "3", "--seed", "5", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["squarefree"] >= 2
    rc, _, err = run_capture(capsys, ["semisimple", "--n", "54", "--samples", "1"])
    assert rc == 2 and "error" in err
    # an empty scan checks nothing, so it must not report a pass
    for samples in ("0", "-1"):
        rc, out, err = run_capture(capsys, ["semisimple", "--n", "4", "--samples", samples])
        assert rc == 2 and out == "" and "samples" in err


def test_lattice_command(capsys):
    rc, out, _ = run_capture(
        capsys,
        ["lattice", "--n", "4", "--dim", "-", "0,1", "--number", "0", "1", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 0
    assert doc["number"] == "1"
    # flip indices outside 0..n+2 are usage errors
    for argv in (["--dim", "0,99", "-"], ["--number", "0,-3", "0"]):
        rc, out, err = run_capture(capsys, ["lattice", "--n", "4"] + argv)
        assert rc == 2 and out == "" and "out of range" in err


@pytest.mark.parametrize(
    "n, flag", [("5", "--gram"), ("2", "--gram"), ("0", "--inequality"), ("-4", "--unique-plane")]
)
def test_lattice_rejects_bad_dimension(capsys, n, flag):
    # no variety exists there, so it is a usage error and not a failed check
    for fmt in ("text", "json"):
        rc, out, err = run_capture(capsys, ["lattice", "--n", n, flag, "--format", fmt])
        assert (rc, out) == (2, "")
        assert err == "error: dimension must be even and >= 4, got %s\n" % n


@pytest.mark.parametrize("depth", ["250", "400"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_deep_correlator_is_a_usage_error(tmp_path, capsys, depth, fmt):
    cache = tmp_path / "memo.cache"
    index = ",".join(["0"] * 5 + [depth] + ["0"] * 6)
    argv = ["correlator", "--n", "4", "--tau-index", index, "--format", fmt]
    rc, out, err = run_capture(capsys, argv + ["--cache", str(cache)])
    assert (rc, out) == (2, "")
    assert err == "error: correlator too deep for the recursion limit\n"
    assert not cache.exists()


def test_lattice_failure_names_false_checks(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "window_sum_inequality", lambda n: False)
    rc, out, err = run_capture(capsys, ["lattice", "--n", "4", "--inequality"])
    assert (rc, out) == (1, "window_sum_inequality: False\n")
    assert err == "lattice check failed: window_sum_inequality\n"
    monkeypatch.setattr(geometry, "only_base_plane_meets_all_windows", lambda n: False)
    rc, out, err = run_capture(
        capsys, ["lattice", "--n", "4", "--gram", "--unique-plane", "--inequality"]
    )
    assert rc == 1
    assert out == (
        "gram_is_signed_identity: True\n"
        "only_base_plane_meets_all_windows: False\n"
        "window_sum_inequality: False\n"
    )
    assert err == (
        "lattice check failed: only_base_plane_meets_all_windows, window_sum_inequality\n"
    )


def test_poly_round_trip():
    cases = [
        (),
        (Fraction(46656),),
        (Fraction(-2), Fraction(0), Fraction(8)),
        (Fraction(11, 16), Fraction(5, 8)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1), Fraction(0), Fraction(1, 3)),
    ]
    for coeffs in cases:
        assert poly_from_str(poly_to_str(coeffs)) == coeffs
        assert poly_from_str(poly_to_str(coeffs, descending=True)) == coeffs
    assert poly_to_str((Fraction(-2), Fraction(0), Fraction(8)), descending=True) == "8*x^2-2"
    assert poly_to_str((Fraction(11, 16), Fraction(5, 8))) == "11/16+5/8*x"
    assert poly_to_str((Fraction(0), Fraction(1))) == "x"
    assert poly_to_str(()) == "0"



@pytest.mark.parametrize(
    "text, coeffs",
    [("0", ()), ("64", (64,)), ("-624", (-624,)), ("-0", ()), ("007", (7,)), ("-007", (-7,))],
)
def test_constant_polynomials_read_as_ints(text, coeffs):
    # constants take a shortcut in both directions; the values, their int
    # type and the writer's text are those of the general route
    got = poly_from_str(text)
    assert got == coeffs and all(type(c) is int for c in got)
    assert poly_to_str(got) == str(sum(coeffs))
    assert poly_to_str((Fraction(sum(coeffs)),)) == poly_to_str(got)
    assert poly_to_str((True,)) == "1"  # bool goes through the scalar gate
    with pytest.raises(TypeError, match="must be int or Fraction"):
        poly_to_str((1.5,))
    for bad in ("-", "--3", "-+3", "3-", "3 "):
        with pytest.raises(ValueError):
            poly_from_str(bad)

def test_cache_round_trip(tmp_path):
    eng = CorrelatorEngine(4)
    eng.correlator_t([0, 0, 3, 0, 0, 4, 0, 0, 0, 0, 0, 0])
    path = tmp_path / "memo.cache"
    save_cache(path, 4, eng.memo)
    loaded = load_cache(path, 4)
    assert loaded == eng.memo
    # idempotent second save
    save_cache(path, 4, loaded)
    assert load_cache(path, 4) == loaded


def test_cache_save_failing_partway_keeps_old_file(tmp_path, monkeypatch):
    import builtins
    import errno

    from qq22 import serial

    eng = CorrelatorEngine(4)
    eng.correlator_t([0, 0, 3, 0, 0, 4, 0, 0, 0, 0, 0, 0])
    path = tmp_path / "memo.cache"
    save_cache(path, 4, {})
    old = path.read_bytes()

    class DiskFull:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, *args, **kwargs):
            self.fh = builtins.open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(serial, "open", DiskFull, raising=False)
    with pytest.raises(OSError):
        save_cache(path, 4, eng.memo)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["memo.cache"]


def test_cache_version_and_n_mismatch(tmp_path):
    path = tmp_path / "memo.cache"
    save_cache(path, 4, {})
    with pytest.raises(CacheError):
        load_cache(path, 6)
    path.write_text("qq22-cache 99 n=4\n")
    with pytest.raises(CacheError):
        load_cache(path, 4)
    path.write_text("something else\n")
    with pytest.raises(CacheError):
        load_cache(path, 4)


@pytest.mark.parametrize(
    "text, lineno",
    [
        (b"qq22-cache\xff 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n", 1),
        (b"qq22-cache 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n4|0,0,6,0,0|0,0,0,0,0,0,0|3\xff\n", 3),
    ],
    ids=["header", "record"],
)
def test_cache_byte_outside_ascii_names_line_number(tmp_path, capsys, text, lineno):
    path = tmp_path / "memo.cache"
    path.write_bytes(text)
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line %d: byte 0xff is not ASCII" % lineno
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert rc == 1 and out == ""
    assert err == "error: line %d: byte 0xff is not ASCII\n" % lineno


@pytest.mark.parametrize(
    "header",
    [
        "qq22-cache 1 m=4",
        "qq22-cache 1 n=+4",
        "qq22-cache 1 n=04",
        "qq22-cache 01 n=4",
        "qq22-cache  1 n=4",
    ],
    ids=["key", "plus", "leading-zero", "version", "spacing"],
)
def test_cache_header_outside_writer_format_is_rejected(tmp_path, capsys, header):
    # save_cache writes exactly "qq22-cache 1 n=<n>"; each of these used to load
    path = tmp_path / "memo.cache"
    path.write_text(header + "\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n")
    before = path.read_bytes()
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 1: malformed header"
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert rc == 1 and out == ""
    assert err == "error: line 1: malformed header\n"
    index = ["correlator", "--n", "4", "--t-index", "0,0,5,0,0,2,0,0,0,0,0,0"]
    rc, out, err = run_capture(capsys, index + ["--cache", str(path)])
    assert rc == 2 and out == ""
    assert err == "error: line 1: malformed header\n"
    assert path.read_bytes() == before


def test_cache_corrupt_line_names_line_number(tmp_path):
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1 n=4\n4|0,0,0,0,0|nonsense|1\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert "line 2" in str(exc.value)


def test_cut_cache_file_is_rejected(tmp_path, capsys):
    eng = CorrelatorEngine(6)
    eng.conjecture_quadratic_lhs()
    path = tmp_path / "memo.cache"
    save_cache(path, 6, eng.memo)
    text = path.read_text()
    # cut right after the 6 of the first record whose value is 64
    end = text.index("|64\n") + 2
    lineno = text.count("\n", 0, end) + 1
    path.write_text(text[:end])
    with pytest.raises(CacheError) as exc:
        load_cache(path, 6)
    assert str(exc.value) == "line %d: truncated record" % lineno
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert rc == 1 and out == ""
    assert "line %d: truncated record" % lineno in err
    # a cut at a line boundary leaves a shorter valid file
    path.write_text(text[: text.rindex("\n", 0, end) + 1])
    subset = load_cache(path, 6)
    assert len(subset) == lineno - 2
    assert all(eng.memo[key] == value for key, value in subset.items())


def test_cache_rejects_non_canonical_and_duplicate_keys(tmp_path):
    path = tmp_path / "memo.cache"
    head = "qq22-cache 1 n=4\n4|0,0,0,0,0|2,2,0,0,0,0,0|1\n"
    path.write_text(head + "4|0,0,0,0,0|0,2,2,0,0,0,0|1\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 3: primitive exponents not sorted descending"
    path.write_text(head + "4|0,0,1,0,0|0,0,0,0,0,0,0|1\n" + head.split("\n")[1] + "\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 4: duplicate key"
    path.write_text(head + "4|0,0,0,0,-1|2,2,0,0,0,0,0|1\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 3: negative exponent"


def test_negative_polynomial_exponent_is_rejected(tmp_path):
    for text in ("3*x^-1", "2+x^-1"):
        with pytest.raises(ValueError):
            poly_from_str(text)
    eng = CorrelatorEngine(4)
    eng.correlator_tau([0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    path = tmp_path / "memo.cache"
    save_cache(path, 4, eng.memo)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 3
    lines[2] = lines[2].rpartition("|")[0] + "|2+x^-1\n"
    path.write_text("".join(lines))
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value).startswith("line 3: negative exponent")


def test_polynomial_exponent_is_bounded(tmp_path, capsys):
    import tracemalloc

    from qq22.serial import MAX_EXPONENT

    top = "x^%d" % MAX_EXPONENT
    assert poly_from_str(top) == (0,) * MAX_EXPONENT + (1,)
    tracemalloc.start()
    try:
        for text in ("x^99999999999", "2+3*x^%d" % (MAX_EXPONENT + 1)):
            with pytest.raises(ValueError, match="^exponent too large in"):
                poly_from_str(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "memo.cache"
    good = "4|0,0,7,0,0|0,0,0,0,0,0,0|%s\n" % top
    path.write_text("qq22-cache 1 n=4\n" + good + "4|0,0,6,0,0|0,0,0,0,0,0,0|x^99999999999\n")
    message = "line 3: exponent too large in 'x^99999999999'"
    for load in (load_cache, _line_by_line_read):
        with pytest.raises(CacheError) as exc:
            load(path, 4)
        assert str(exc.value) == message
    assert run_capture(capsys, ["cache-info", "--cache", str(path)]) == (
        1,
        "",
        "error: %s\n" % message,
    )
    path.write_text("qq22-cache 1 n=4\n" + good)
    assert load_cache(path, 4) == {((0, 0, 7, 0, 0), (0,) * 7): poly_from_str(top)}


@pytest.mark.parametrize(
    "record",
    [
        "4|0,0,+7,0,0|0,0,0,0,0,0,0|--3x^1_0",  # every fault below at once
        "4|0,0,+7,0,0|0,0,0,0,0,0,0|3",  # sign in a key field
        "+4|0,0,7,0,0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|--3",  # doubled sign
        "4|0,0,7,0,0|0,0,0,0,0,0,0|1+-3*x",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|+3",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|3x",  # x with no '*'
        "4|0,0,7,0,0|0,0,0,0,0,0,0|3*x^1_0",  # '_' digit separator
        "4|0,0,1_0,0,0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|3 ",  # whitespace
        "4|0,0,7,0,0|0,0,0,0,0,0,0|3\t",
        "4|0,0, 7,0,0|0,0,0,0,0,0,0|3",
        " 4|0,0,7,0,0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|٣",  # non-ASCII digit
        "4|0,0,٧,0,0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|x^1",  # text that parses, but the
        "4|0,0,7,0,0|0,0,0,0,0,0,0|1*x",  # writer renders the value
        "4|0,0,7,0,0|0,0,0,0,0,0,0|x^0",  # otherwise
        "4|0,0,7,0,0|0,0,0,0,0,0,0|0*x",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|-0",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|x+x",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|2/4",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|3/1",
        "4|0,0,7,0,0|0,0,0,0,0,0,0|x^2+1",
        "4|0,0,07,0,0|0,0,0,0,0,0,0|3",
        "04|0,0,7,0,0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,-0|0,0,0,0,0,0,0|3",
        "4|0,0,7,0,0|0100,0,0,0,0,0,0|3",
    ],
)
def test_cache_record_outside_writer_grammar_is_rejected(tmp_path, capsys, record):
    # each of these used to load as a value save_cache never writes
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1 n=4\n" + record + "\n", encoding="utf-8")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value).startswith("line 2: ")
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert rc == 1 and out == "" and err.startswith("error: line 2: ")
    good = "4|0,0,7,0,0|0,0,0,0,0,0,0|3\n"
    path.write_text("qq22-cache 1 n=4\n" + good)
    assert load_cache(path, 4) == {((0, 0, 7, 0, 0), (0,) * 7): (Fraction(3),)}


_LONG = "7" * 5000  # more digits than the interpreter's int() reads by default
_TOO_LONG = "number of 5000 digits is too long: '777777777777'..."


@pytest.mark.parametrize(
    "record, message",
    [
        ("4|0,0,,7,0|0,0,0,0,0,0,0|3", "bad exponent ''"),  # passed a digits-only check
        ("4|0,0,7,0,0|0,0,0,0,0,0,|3", "bad exponent ''"),
        ("4|0,0,7,0,0|,0,0,0,0,0,0|3", "bad exponent ''"),
        ("4|0,a,7,0,0|0,0,0,0,0,0,0|3", "bad exponent 'a'"),
        ("4|0,0,%s,0,0|0,0,0,0,0,0,0|3" % _LONG, _TOO_LONG),
        ("4|0,0,-%s,0,0|0,0,0,0,0,0,0|3" % _LONG, "number of 5000 digits is too long: '-77777777777'..."),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|%s" % _LONG, _TOO_LONG),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|-%s" % _LONG, _TOO_LONG),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|1+%s*x" % _LONG, _TOO_LONG),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|1/%s" % _LONG, _TOO_LONG),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|%s/3*x" % _LONG, _TOO_LONG),
        ("4|0,0,7,0,0|0,0,0,0,0,0,0|x^%s" % _LONG, _TOO_LONG),
    ],
    ids=lambda v: v.replace(_LONG, "<5000 digits>"),
)
def test_malformed_numbers_get_cache_messages(tmp_path, capsys, record, message):
    # each is refused with a message about the record's text, by both
    # loaders, never with the interpreter's int() text or its advice
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1 n=4\n" + record + "\n")
    for load in (load_cache, _line_by_line_read):
        with pytest.raises(CacheError) as exc:
            load(path, 4)
        assert str(exc.value) == "line 2: " + message
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert (rc, out, err) == (1, "", "error: line 2: %s\n" % message)
    assert "int()" not in err and "set_int_max_str_digits" not in err


def test_writer_text_check_names_the_text(tmp_path):
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1 n=4\n4|0,0,07,0,0|0,0,0,0,0,0,0|x^1\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 2: '0,0,07,0,0' is not the text save_cache writes"
    path.write_text("qq22-cache 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|x^1\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == "line 2: 'x^1' is not the text save_cache writes"
    # an exponent of 100 or more is written, and read back, like any other
    path.write_text("qq22-cache 1 n=4\n4|0,0,7,0,0|100,0,0,0,0,0,0|x\n")
    key = ((0, 0, 7, 0, 0), (100, 0, 0, 0, 0, 0, 0))
    assert load_cache(path, 4) == {key: (Fraction(0), Fraction(1))}


@pytest.mark.parametrize(
    "records, message",
    [
        # the primitive text of line 2 comes back as an ambient field
        (
            ["4|0,0,7,0,0|0,0,0,0,0,0,0|3", "4|0,0,0,0,0,0,0|0,0,0,0,0,0,0|1"],
            "line 3: record does not match n=4",
        ),
        # too long and negative: the length is reported first
        (
            ["4|0,0,7,0,0|0,0,0,0,0,0,0|3", "4|0,0,0,0,0,-1|0,0,0,0,0,0,0|1"],
            "line 3: record does not match n=4",
        ),
        # a new negative ambient field beside a primitive text seen valid
        (
            ["4|0,0,7,0,0|0,0,0,0,0,0,0|3", "4|0,0,0,0,-1|0,0,0,0,0,0,0|3"],
            "line 3: negative exponent",
        ),
        # the polynomial of line 3 comes back on a repeated key
        (
            [
                "4|0,0,7,0,0|0,0,0,0,0,0,0|3",
                "4|0,0,6,0,0|0,0,0,0,0,0,0|5",
                "4|0,0,7,0,0|0,0,0,0,0,0,0|5",
            ],
            "line 4: duplicate key",
        ),
        # a known non-writer polynomial on a repeated key: the key is reported
        (
            ["4|0,0,7,0,0|0,0,0,0,0,0,0|3", "4|0,0,7,0,0|0,0,0,0,0,0,0|3/1"],
            "line 3: duplicate key",
        ),
        # a field text seen valid, then on a record with a descending fault
        (
            ["4|0,0,7,0,0|1,0,0,0,0,0,0|3", "4|0,0,7,0,0|0,1,0,0,0,0,0|3"],
            "line 3: primitive exponents not sorted descending",
        ),
    ],
    ids=[
        "length",
        "length-before-sign",
        "sign",
        "duplicate",
        "duplicate-before-text",
        "order",
    ],
)
def test_cache_error_precedence_with_reused_texts(tmp_path, capsys, records, message):
    # each text is parsed once, but every record is still checked in the
    # same order: the first failing check of the first bad line is reported
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1 n=4\n" + "\n".join(records) + "\n")
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == message
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert rc == 1 and out == "" and err == "error: %s\n" % message


def test_cache_io_parses_and_renders_each_distinct_text_once(tmp_path, monkeypatch):
    from collections import Counter

    from qq22 import serial

    eng = CorrelatorEngine(6)
    eng.conjecture_quadratic_lhs()
    path = tmp_path / "memo.cache"
    save_cache(path, 6, eng.memo)
    data = path.read_bytes()
    records = [line.split("|") for line in data.decode().splitlines()[1:]]
    fields = {text for record in records for text in record[:3]}
    polys = {record[3] for record in records}
    assert len(records) > 4 * len(fields) > 20 * len(polys)
    calls = Counter()
    for name in ("_verdict", "_exponents", "_key_text", "poly_from_str", "poly_to_str"):

        def counted(*args, _real=getattr(serial, name), _name=name, **kwargs):
            # _verdict(n, column, text) is counted by its column and text
            calls[_name, args[1:] if _name == "_verdict" else args[0]] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(serial, name, counted)

    def made(name):
        return {arg: k for (called, arg), k in calls.items() if called == name}

    loaded = load_cache(path, 6)
    assert loaded == eng.memo
    texts = {(k, text) for record in records for k, text in enumerate(record)}
    assert made("_verdict") == dict.fromkeys(texts, 1)
    assert set(made("_exponents").values()) <= {1} and set(made("_exponents")) <= fields
    assert made("poly_from_str") == dict.fromkeys(polys, 1)
    assert len({id(poly) for poly in loaded.values()}) == len(polys)
    calls.clear()
    again = tmp_path / "again.cache"
    save_cache(again, 6, loaded)
    assert again.read_bytes() == data
    assert made("poly_to_str") == dict.fromkeys(set(loaded.values()), 1)
    assert made("_key_text") == dict.fromkeys({k for key in loaded for k in key}, 1)


def _reference_field(text):
    """A key field's exponents and its verdicts: nonnegative, sorted
    descending, and written as ``save_cache`` writes them.  A field that is
    not comma-separated optionally signed ASCII digits is refused with the
    loader's message."""
    from qq22 import serial

    parts = text.split(",")
    for part in parts:
        if not re.fullmatch("-?[0-9]+", part):
            raise ValueError("bad exponent %r" % part)
    values = tuple(map(serial._int, parts))
    descending = values == tuple(sorted(values, reverse=True))
    return values, min(values) >= 0, descending, ",".join(map(str, values)) == text


def _line_by_line_read(path, n):
    """The loader before the bulk phase: every record checked in its own
    pass, lines broken by ``str.splitlines`` and blank lines skipped."""
    from qq22 import serial

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CacheError(
            "line %d: byte 0x%02x is not ASCII" % (lineno, data[exc.start])
        ) from None
    if not text.strip():
        return {}
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise CacheError("line %d: truncated record" % len(lines))
    header = lines[0].split()
    if len(header) != 3 or header[0] != serial.CACHE_MAGIC:
        raise CacheError("line 1: not a cache file header")
    version = serial._header_int(header[1])
    file_n = serial._header_int(header[2][2:] if header[2].startswith("n=") else "")
    if " ".join(header) != lines[0]:
        raise CacheError("line 1: malformed header")
    if version != serial.CACHE_VERSION:
        raise CacheError("unsupported cache format version %d" % version)
    try:
        check_dimension(file_n)
    except ValueError as exc:
        raise CacheError("line 1: %s" % exc) from None
    if file_n != n:
        raise CacheError("cache is for n=%d, requested n=%d" % (file_n, n))
    memo = {}
    fields = {}  # each distinct text is parsed once, so equal values share a tuple
    polys = {}

    def field(text):
        if text not in fields:
            fields[text] = _reference_field(text)
        return fields[text]

    def poly_entry(text):
        if text not in polys:
            poly = serial.poly_from_str(text)
            polys[text] = poly, serial.poly_to_str(poly) == text
        return polys[text]

    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("|")
        if len(parts) != 4:
            if not line.strip():
                continue
            raise CacheError("line %d: expected 4 fields" % lineno)
        try:
            n_entry = field(parts[0])
            amb, amb_nonnegative, _, amb_canonical = field(parts[1])
            prim, prim_nonnegative, prim_descending, prim_canonical = field(parts[2])
            (rec_n,) = n_entry[0]
            poly, poly_canonical = poly_entry(parts[3])
        except (ValueError, ArithmeticError) as exc:
            raise CacheError("line %d: %s" % (lineno, exc)) from None
        if rec_n != n or len(amb) != n + 1 or len(prim) != n + 3:
            raise CacheError("line %d: record does not match n=%d" % (lineno, n))
        if not (amb_nonnegative and prim_nonnegative):
            raise CacheError("line %d: negative exponent" % lineno)
        if not prim_descending:
            raise CacheError("line %d: primitive exponents not sorted descending" % lineno)
        key = (amb, prim)
        if key in memo:
            raise CacheError("line %d: duplicate key" % lineno)
        if not (n_entry[3] and amb_canonical and prim_canonical and poly_canonical):
            text = next((t for t in parts[:3] if not fields[t][3]), parts[3])
            raise CacheError("line %d: %r is not the text save_cache writes" % (lineno, text))
        memo[key] = poly
    return memo


def _load_outcome(load, path, n):
    """What a loader makes of a file: its CacheError text, or the memo's
    items in order, the type of every coefficient, and which values share
    one tuple (each value's position is that of the first value it is)."""
    try:
        memo = load(path, n)
    except CacheError as exc:
        return "error", str(exc)
    first = {}
    shared = [first.setdefault(id(v), k) for k, v in enumerate(memo.values())]
    types = [tuple(map(type, v)) for v in memo.values()]
    return "memo", list(memo.items()), types, shared


def _keyed_loads(key):
    """load_cache asked for key, and what the line-by-line loader makes of
    that ask: the one record for key when the file holds it, else the memo."""

    def line_by_line(path, n):
        memo = _line_by_line_read(path, n)
        return {key: memo[key]} if key in memo else memo

    return (lambda path, n: load_cache(path, n, key)), line_by_line


def _draw_key(lines, rng):
    """The key of a drawn record of lines, or a key no saved cache holds."""
    k = rng.randrange(len(lines))
    if not k:
        return ((0,) * 99, ())
    return tuple(tuple(map(int, field.split(","))) for field in lines[k].split("|")[1:3])


@pytest.fixture(scope="module")
def saved_caches(tmp_path_factory):
    """The cache text saved after the quadratic identity, by n."""
    texts = {}
    for n in (4, 6, 8):
        eng = CorrelatorEngine(n)
        eng.conjecture_quadratic()
        path = tmp_path_factory.mktemp("caches") / ("memo%d.cache" % n)
        save_cache(path, n, eng.memo)
        texts[n] = path.read_text()
    return texts


def _text(lines, sep="\n"):
    return "".join(line + sep for line in lines)


def _edit_line(make, lineno=None):
    """Replace one line, the header for lineno 0, else a drawn record."""

    def mutate(lines, rng):
        k = rng.randrange(1, len(lines)) if lineno is None else lineno
        lines[k] = make(lines[k], rng)
        return _text(lines)

    return mutate


def _edit_field(kinds, make):
    """Replace one field of a drawn record, its kind drawn from kinds."""

    def edit(record, rng):
        parts = record.split("|")
        k = rng.choice(kinds)
        parts[k] = make(parts[k], rng)
        return "|".join(parts)

    return _edit_line(edit)


def _set_exponent(value):
    def make(field, rng):
        values = field.split(",")
        values[rng.randrange(len(values))] = value
        return ",".join(values)

    return make


def _ascending(field, rng):
    values = field.split(",")
    if len(set(values)) == 1:
        return ",".join(values[:-1] + ["1"])
    return ",".join(sorted(values, key=int))


def _cut(lines, rng):
    text = _text(lines)
    return text[: rng.randrange(len(lines[0]) + 1, len(text) - 1)]


def _realign(lines, rng):
    # "n|A|P|V", "n|B|Q|W" -> "n|A|P", "V|n|B|Q|W": the same cells in order
    k = rng.randrange(1, len(lines) - 1)
    head, _, value = lines[k].rpartition("|")
    lines[k : k + 2] = [head, value + "|" + lines[k + 1]]
    return _text(lines)


def _duplicate(lines, rng):
    k = rng.randrange(1, len(lines))
    lines.insert(rng.randrange(k + 1, len(lines) + 1), lines[k])
    return _text(lines)


def _reused_texts(lines, rng):
    # a primitive text seen valid on an earlier line comes back as an ambient
    # field, beside that line's polynomial
    k = rng.randrange(1, len(lines) - 1)
    prim, value = lines[k].split("|")[2:]
    j = rng.randrange(k + 1, len(lines))
    parts = lines[j].split("|")
    lines[j] = "|".join([parts[0], prim, parts[2], value])
    return _text(lines)


def _join_records(sep):
    def mutate(lines, rng):
        k = rng.randrange(1, len(lines) - 1)
        lines[k : k + 2] = [lines[k] + sep + lines[k + 1]]
        return _text(lines)

    return mutate


def _insert_line(line):
    def mutate(lines, rng):
        lines.insert(rng.randrange(2, len(lines)), line)
        return _text(lines)

    return mutate


# Each mutation makes a file's text from the lines of a saved cache (a list
# it may change) and a seeded rng that draws the line and field it edits.
LOAD_MUTATIONS = {
    "header-only": lambda lines, rng: _text(lines[:1]),
    "prefix": lambda lines, rng: _text(lines[: rng.randrange(1, len(lines))]),
    "fraction-value": _edit_field((3,), lambda f, rng: "-1/2+3/4*x^2"),
    "cut": _cut,
    "header-version": _edit_line(lambda h, rng: h.replace(" 1 ", " 2 "), 0),
    "header-n": _edit_line(lambda h, rng: h[:-1] + str(int(h[-1]) + 2), 0),
    "header-spacing": _edit_line(lambda h, rng: h.replace(" ", "  ", 1), 0),
    "non-ascii": _edit_line(lambda r, rng: r[:2] + "\xe9" + r[2:]),
    "extra-field": _edit_line(lambda r, rng: r + "|0"),
    "missing-field": _edit_line(lambda r, rng: r.rpartition("|")[0]),
    "realign": _realign,
    "record-n": _edit_field((0,), lambda f, rng: f + "0"),
    "n-twice": _edit_field((0,), lambda f, rng: f + "," + f),
    "amb-length": _edit_field((1,), lambda f, rng: f[2:]),
    "prim-length": _edit_field((2,), lambda f, rng: "0," + f),
    "negative": _edit_field((1, 2), _set_exponent("-1")),
    "unsorted": _edit_field((2,), _ascending),
    "bad-exponent": _edit_field((0, 1, 2), _set_exponent("a")),
    "leading-zero": _edit_field((1, 2), lambda f, rng: "0" + f),
    "duplicate": _duplicate,
    "reused-texts": _reused_texts,
    "poly-not-canonical": _edit_field((3,), lambda f, rng: f + "+0*x"),
    "poly-zero-division": _edit_field((3,), lambda f, rng: "1/0"),
    "poly-negative-power": _edit_field((3,), lambda f, rng: "x^-1"),
    "poly-sign": _edit_field((3,), lambda f, rng: "--" + f),
    # line breaks and lines save_cache never writes (see LOAD_REFUSED_NOW)
    "crlf": lambda lines, rng: _text(lines, "\r\n"),
    "vertical-tab": _join_records("\x0b"),
    "form-feed": _join_records("\x0c\n"),
    "blank-line": _insert_line(""),
    "whitespace-line": _insert_line(" \t"),
}

# The mutations that the line-by-line loader read as records (splitlines
# breaks lines at "\r\n", "\x0b" and "\x0c" too, and blank lines were
# skipped) and load_cache now refuses, with the message it gives.
LOAD_REFUSED_NOW = {
    "crlf": r"line 1: malformed header",
    "vertical-tab": r"line \d+: expected 4 fields",
    "form-feed": r"line \d+: bad character in polynomial '.*\\x0c'",
    "blank-line": r"line \d+: expected 4 fields",
    "whitespace-line": r"line \d+: expected 4 fields",
}
LOADABLE = {"header-only", "prefix", "fraction-value"}


@pytest.mark.parametrize("name", sorted(LOAD_MUTATIONS))
@pytest.mark.parametrize("n", [4, 6])
def test_bulk_load_matches_line_by_line_load(saved_caches, tmp_path, n, name):
    # load_cache judges each distinct text once and names a fault from those
    # verdicts; the result must be the line-by-line loader's, save for the
    # line breaks and lines LOAD_REFUSED_NOW lists.  Asked for a key, it
    # judges the same texts and gives only that key's record when it loads
    lines = saved_caches[n].split("\n")[:-1]
    path = tmp_path / "memo.cache"
    for seed in range(3):
        rng = random.Random("%s %d %d" % (name, n, seed))
        path.write_bytes(LOAD_MUTATIONS[name](list(lines), rng).encode("latin-1"))
        loads = [(load_cache, _line_by_line_read), _keyed_loads(_draw_key(lines, rng))]
        for keyed, (load, line_by_line) in enumerate(loads):
            old = _load_outcome(line_by_line, path, n)
            new = _load_outcome(load, path, n)
            if name in LOAD_REFUSED_NOW:
                assert old[0] == "memo"
                assert new[0] == "error" and re.fullmatch(LOAD_REFUSED_NOW[name], new[1])
            else:
                assert (old[0] == "memo") == (name in LOADABLE)
                assert new == old
                if name == "fraction-value" and not keyed:
                    assert {int, Fraction} <= {t for types in new[2] for t in types}


# The mutations a stacked-fault file draws from.  Each edits the list of lines
# in place, so several can be applied to one file.  They run in STACK_ORDER:
# first the edits that parse a line's fields or copy a line (later edits may
# then change one copy), last those that change a record's number of fields.
FIELD_EDITS = (
    "fraction-value",
    "record-n",
    "n-twice",
    "amb-length",
    "prim-length",
    "negative",
    "unsorted",
    "bad-exponent",
    "leading-zero",
    "poly-not-canonical",
    "poly-zero-division",
    "poly-negative-power",
    "poly-sign",
)
STACK_ORDER = {
    "duplicate": 0,
    "reused-texts": 0,
    "unsorted": 0,
    "extra-field": 2,
    "missing-field": 2,
    "realign": 2,
}
STACKED = FIELD_EDITS + ("duplicate", "reused-texts", "extra-field", "missing-field", "realign")


def test_stacked_faults_are_reported_as_line_by_line(saved_caches, tmp_path):
    # one to four faults on a prefix of a saved cache, often on one record:
    # the first bad line and its first failing check are the ones reported
    path = tmp_path / "memo.cache"
    messages = set()
    for n in (4, 6):
        lines = saved_caches[n].split("\n")[:-1]
        for seed in range(150):
            rng = random.Random("stacked %d %d" % (n, seed))
            size = rng.choice((3, 4, 6, 10, 40, len(lines)))
            prefix = lines[:size]
            edits = rng.choices(STACKED, k=rng.randint(1, 4))
            for name in sorted(edits, key=lambda name: STACK_ORDER.get(name, 1)):
                text = LOAD_MUTATIONS[name](prefix, rng)
            path.write_text(text)
            outcome = _load_outcome(load_cache, path, n)
            assert outcome == _load_outcome(_line_by_line_read, path, n)
            if outcome[0] == "error":
                messages.add(outcome[1])
            load, line_by_line = _keyed_loads(_draw_key(lines[:size], rng))
            assert _load_outcome(load, path, n) == _load_outcome(line_by_line, path, n)
    assert len(messages) >= 60


@pytest.mark.parametrize("n", [4, 6, 8])
def test_bulk_load_of_saved_cache_matches_line_by_line_load(saved_caches, tmp_path, n):
    path = tmp_path / "memo.cache"
    path.write_text(saved_caches[n])
    outcome = _load_outcome(load_cache, path, n)
    assert outcome == _load_outcome(_line_by_line_read, path, n)
    assert outcome[0] == "memo" and len(outcome[1]) == saved_caches[n].count("\n") - 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("qq22-cache 1 n=4\r\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\r\n", "line 1: malformed header"),
        (
            "qq22-cache 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\x0b4|0,0,6,0,0|0,0,0,0,0,0,0|3\n",
            "line 2: expected 4 fields",
        ),
        (
            "qq22-cache 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\x0c\n",
            "line 2: bad character in polynomial '3\\x0c'",
        ),
        ("qq22-cache 1 n=4\n\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n", "line 2: expected 4 fields"),
        ("qq22-cache 1 n=4\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n \n", "line 3: expected 4 fields"),
    ],
    ids=["crlf", "vertical-tab", "form-feed", "blank-line", "whitespace-line"],
)
def test_only_newline_breaks_records(tmp_path, capsys, text, message):
    # str.splitlines used to break these lines, and blank lines were skipped
    path = tmp_path / "memo.cache"
    path.write_text(text, newline="")
    assert _load_outcome(_line_by_line_read, path, 4)[0] == "memo"
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value) == message
    assert run_capture(capsys, ["cache-info", "--cache", str(path)]) == (
        1,
        "",
        "error: %s\n" % message,
    )


def test_blank_first_line_is_not_an_empty_cache(tmp_path, capsys):
    index = ["correlator", "--n", "4", "--t-index", "0,0,5,0,0,2,0,0,0,0,0,0"]
    path = tmp_path / "memo.cache"
    for text in ("", "\n", " \n\n\t\n"):
        path.write_text(text)
        assert load_cache(path, 4) == {}
    eng = CorrelatorEngine(4)
    eng.correlator_tau([0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    save_cache(path, 4, eng.memo)
    path.write_text("\n" + path.read_text())
    before = path.read_bytes()
    with pytest.raises(CacheError) as exc:
        load_cache(path, 4)
    assert str(exc.value).startswith("line 1: ")
    rc, out, err = run_capture(capsys, index + ["--cache", str(path)])
    assert rc == 2 and out == "" and "line 1: " in err
    assert path.read_bytes() == before


def test_warm_query_does_not_rewrite_cache(tmp_path, capsys, monkeypatch):
    # a --tau-index query finds its own record; a --t-index query loads all
    from qq22 import cli

    for flag in ("--t-index", "--tau-index"):
        index = ["correlator", "--n", "4", flag, "0,0,5,0,0,2,0,0,0,0,0,0"]
        cache = tmp_path / ("warm%s.cache" % flag)
        assert run_capture(capsys, index + ["--cache", str(cache)])[0] == 0
        before = cache.read_bytes()
        saves = []
        monkeypatch.setattr(cli, "save_cache", lambda *args: saves.append(args))
        assert run_capture(capsys, index + ["--cache", str(cache)])[0] == 0
        monkeypatch.undo()
        assert saves == []
        assert cache.read_bytes() == before


def test_warm_cache_byte_identical(tmp_path, capsys):
    for flag in ("--t-index", "--tau-index"):
        index = ["correlator", "--n", "4", flag, "0,0,5,0,0,2,0,0,0,0,0,0"]
        cache = str(tmp_path / ("warm%s.cache" % flag))
        rc1, out1, _ = run_capture(capsys, index + ["--cache", cache])
        rc2, out2, _ = run_capture(capsys, index + ["--cache", cache])
        rc3, out3, _ = run_capture(capsys, index)
        assert rc1 == rc2 == rc3 == 0
        assert out1 == out2 == out3
        assert out1.strip() == "-624"


@pytest.mark.parametrize("n", [4, 6])
def test_warm_hit_prints_the_no_cache_bytes(saved_caches, tmp_path, capsys, monkeypatch, n):
    # every record of a saved cache, queried warm in text or JSON with the
    # primitive part as saved or permuted (the four cycled over the records),
    # prints what a query without a cache prints; the load gives the query
    # only its own entry, and the file is not rewritten
    from qq22 import cli

    path = tmp_path / "memo.cache"
    path.write_text(saved_caches[n])
    records = saved_caches[n].split("\n")[1:-1]
    rng = random.Random("warm hit %d" % n)
    queries = []
    for k, record in enumerate(records):
        amb, prim = (field.split(",") for field in record.split("|")[1:3])
        if k & 2:
            rng.shuffle(prim)
        index = ",".join(amb + prim)
        fmt = ("text", "json")[k & 1]
        queries.append(["correlator", "--n", str(n), "--tau-index", index, "--format", fmt])
    shared = CorrelatorEngine(n)  # its values do not depend on what it holds
    monkeypatch.setattr(cli, "CorrelatorEngine", lambda n: shared)
    expected = [run_capture(capsys, query) for query in queries]
    monkeypatch.undo()
    loaded = []

    def load(*args, _real=cli.load_cache):
        memo = _real(*args)
        loaded.append(len(memo))
        return memo

    monkeypatch.setattr(cli, "load_cache", load)
    warm = [run_capture(capsys, query + ["--cache", str(path)]) for query in queries]
    assert warm == expected and {rc for rc, _, _ in expected} == {0}
    assert loaded == [1] * len(queries)
    assert path.read_text() == saved_caches[n]


def test_warm_miss_saves_what_load_compute_save_writes(saved_caches, tmp_path, capsys):
    # a key the file lacks loads the whole memo, and the query saves it with
    # its new entries, as the memo loaded, computed on and saved
    n = 4
    index = "0,0,5,0,0,2,0,0,0,0,0,0"
    path = tmp_path / "memo.cache"
    path.write_text(saved_caches[n])
    eng = CorrelatorEngine(n)
    eng.memo = load_cache(path, n)
    assert ((0, 0, 5, 0, 0), (2,) + (0,) * 6) not in eng.memo
    eng.correlator_tau(list(map(int, index.split(","))))
    reference = tmp_path / "reference.cache"
    save_cache(reference, n, eng.memo)
    query = ["correlator", "--n", str(n), "--tau-index", index]
    expected = run_capture(capsys, query)
    assert run_capture(capsys, query + ["--cache", str(path)]) == expected == (0, "-624\n", "")
    assert path.read_bytes() == reference.read_bytes() != saved_caches[n].encode()


def test_conics_command(capsys):
    rc, out, _ = run_capture(
        capsys, ["conics", "--lambda", "1,2,3,4,5,6,7", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["pipeline"]["ok"] is True
    assert doc["rigidity"]["ok"] is True
    assert doc["extras"]["no_conic_on_base_plane"] is True
    assert doc["extras"]["plane_in_conjectural_quadric"] is True


@pytest.mark.parametrize(
    "fmt, size, digest",
    [
        ("json", 4244, "4cac785e1180548cb0997827daabe7bfd82fe6382d0ddafe9383666c434c6583"),
        ("text", 1819, "4ff066e07a9308181c0bf9d59d6e0da84759097e11278a7b10d924e6f6f15142"),
    ],
)
def test_conics_output_is_pinned(capsys, fmt, size, digest):
    rc, out, err = run_capture(
        capsys, ["conics", "--lambda", "1,2,3,4,5,6,7", "--format", fmt]
    )
    assert rc == 0 and err == ""
    data = out.encode("ascii")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, size, digest",
    [
        ("json", 10662, "58824eeb45bd8165022890a4dfd719c2a1678dd7c5edb6b88faae29445b7fb27"),
        ("text", 1983, "dfcc1d4f35d2dcd2e3e6c3cc5d570928d099472dfacb207c78c4256cacb925d4"),
    ],
    ids=["json", "text"],
)
def test_semisimple_output_is_pinned(capsys, fmt, size, digest):
    rc, out, err = run_capture(
        capsys,
        ["semisimple", "--n", "6", "--samples", "20", "--seed", "1", "--format", fmt],
    )
    assert rc == 0 and err == ""
    data = out.encode("ascii")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


T4 = "0,0,0,2,1,0,0,0,0,0,0,0"
TAU4 = "0,0,7,0,0,0,0,0,0,0,0,0"
WARM4 = "0,0,5,0,0,2,0,0,0,0,0,0"
LATTICE4 = ["--dim", "-", "0,1", "--number", "0", "1"]
LATTICE4 += ["--gram", "--unique-plane", "--inequality"]


@pytest.mark.parametrize(
    "argv, fmt, size, digest",
    [
        (["correlator", "--n", "4", "--tau-index", TAU4], "text", 6,
         "91ca0b4c4418d678795ea44f5f09feb56fccdedb7b4e119e8e77275f910ebf45"),
        (["correlator", "--n", "4", "--tau-index", TAU4], "json", 228,
         "dacd6adbd6b6d605ed6317efd4e522cab01b41fa611b0c6764e4e92a0940dcc5"),
        (["correlator", "--n", "4", "--t-index", T4], "text", 4,
         "49d7ac459790bd263dec212b9b71f59c0b5d55947c3c9593127ccfe8dadeff08"),
        (["correlator", "--n", "4", "--t-index", T4], "json", 224,
         "76d9f195c21a6e0d97d61d2963f295136ae4cc4a4f37c255e9292c8ca925307f"),
        (["special-expr", "--n", "4", "--target", "f"], "text", 12,
         "ee25c2be5eddceaadfcd1ccddde7207d9ee180ce33f7689d29854a6c7ef1c716"),
        (["special-expr", "--n", "4", "--target", "f"], "json", 157,
         "f5c5f4557f983baf0366d0c693060462ef339bd443f780c91b09e02230d1aed1"),
        (["special-expr", "--n", "4", "--target", "quadratic"], "text", 2,
         "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (["special-expr", "--n", "4", "--target", "quadratic"], "json", 71,
         "43a936f16fa9712609a0751fbb97b0c0e96d8a6956d449b913c327959f719d4c"),
        (["conjecture", "--n", "4"], "text", 27,
         "a18e5adc4674c8d5a52a96f91ad90139bccd9c1ea729cf9a06afbfebd97633d4"),
        (["conjecture", "--n", "4"], "json", 68,
         "9f1d03cefa9e260d317344778ce34d80140a7a9c1417042948ba8dd1aeb338cb"),
        (["lattice", "--n", "4"] + LATTICE4, "text", 115,
         "c087c6862256096953920587906c0bc5573597b2fedb201143011051b0ffad97"),
        (["lattice", "--n", "4"] + LATTICE4, "json", 155,
         "0a550ed4bdb76ddebea4407bc290ce2a3d1b8310d884d36459b80e12b6c10bf8"),
    ],
    ids=[
        "%s-%s" % (name, fmt)
        for name in ("tau-index", "t-index", "f", "quadratic", "conjecture", "lattice")
        for fmt in ("text", "json")
    ],
)
def test_cli_output_is_pinned(capsys, argv, fmt, size, digest):
    rc, out, err = run_capture(capsys, argv + ["--format", fmt])
    assert rc == 0 and err == ""
    data = out.encode("ascii")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, size, digest, info, empty",
    [
        (
            "text",
            5,
            "156e3b7cc8f7a985d29b861eea09e4ac7651ab79e5d336565a9f09560a4f24bd",
            "qq22-cache version 1 n=4, 92 entries\n",
            "empty cache, 0 entries\n",
        ),
        (
            "json",
            225,
            "f5e963ec9872bb51367ee4bf61e028433dd52191f2dd6e6cdedd4833ba3c0748",
            '{\n  "magic": "qq22-cache",\n  "version": "1",\n  "n": "n=4",\n'
            '  "entries": 92\n}\n',
            '{\n  "magic": null,\n  "version": null,\n  "n": null,\n  "entries": 0\n}\n',
        ),
    ],
    ids=["text", "json"],
)
def test_cached_query_and_cache_info_are_pinned(
    tmp_path, capsys, fmt, size, digest, info, empty
):
    cache = str(tmp_path / "memo.cache")
    query = ["correlator", "--n", "4", "--t-index", WARM4, "--format", fmt, "--cache", cache]
    for _ in ("cold", "warm"):
        rc, out, err = run_capture(capsys, query)
        assert rc == 0 and err == ""
        data = out.encode("ascii")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest
    cache_info = ["cache-info", "--format", fmt, "--cache"]
    assert run_capture(capsys, cache_info + [cache]) == (0, info, "")
    (tmp_path / "empty.cache").write_text("")
    assert run_capture(capsys, cache_info + [str(tmp_path / "empty.cache")]) == (0, empty, "")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["lattice", "--n", "4"],
         "nothing to do; pass --dim/--number/--gram/--unique-plane/--inequality\n"),
        (["cache-info"], "no cache path given\n"),
        (["conics", "--lambda", "1,2,3,4,5,6,8"],
         "error: pipeline verification data exists only for (1,...,7)\n"),
        (["conics", "--lambda", "1,2,3,4,5,6,7/0"],
         "error: parameter '7/0' has a zero denominator\n"),
    ],
    ids=["lattice", "cache-info", "conics", "conics-zero-denominator"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_usage_failure_is_pinned(capsys, monkeypatch, argv, err, fmt):
    monkeypatch.delenv("QH22_CACHE", raising=False)
    assert run_capture(capsys, argv + ["--format", fmt]) == (2, "", err)



def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # run() keeps one argparse tree per process; each call on it, a usage
    # error among them, prints what a call on a fresh tree prints
    from qq22 import cli

    monkeypatch.delenv("QH22_CACHE", raising=False)
    cache = tmp_path / "memo.cache"
    eng = CorrelatorEngine(4)
    eng.correlator_tau([0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    save_cache(cache, 4, eng.memo)
    calls = [
        ["correlator", "--n", "4", "--tau-index", TAU4, "--format", "json"],
        ["correlator", "--n", "4", "--tau-index", TAU4],
        ["correlator", "--n", "4", "--format", "json"],
        ["conics", "--lambda", "1,2,3,4,5,6,7"],
        ["cache-info", "--cache", str(cache)],
    ]

    def outcome(argv):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = "exit %s" % exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli.build_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli.build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in fresh] == [0, 0, "exit 2", 0, 0]
    assert fresh[2][2].startswith("usage: qq22 correlator")

def test_conics_rejects_degenerate_parameters(capsys):
    rc, _, err = run_capture(capsys, ["conics", "--lambda", "1,1,3,4,5,6,7"])
    assert rc == 2
    assert "error" in err


def test_cache_info(tmp_path, capsys):
    eng = CorrelatorEngine(4)
    eng.correlator_tau([0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    path = tmp_path / "memo.cache"
    save_cache(path, 4, eng.memo)
    rc, out, _ = run_capture(capsys, ["cache-info", "--cache", str(path), "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == "1"
    assert doc["entries"] == len(eng.memo)


@pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "whitespace"])
def test_cache_info_reads_empty_file_as_empty_cache(tmp_path, capsys, text):
    # load_cache and correlator --cache read such a file as an empty cache;
    # cache-info used to call it "not a cache file" and exit 1
    path = tmp_path / "memo.cache"
    info = ["cache-info", "--cache", str(path)]
    path.write_text(text)
    assert run_capture(capsys, info) == (0, "empty cache, 0 entries\n", "")
    rc, out, err = run_capture(capsys, info + ["--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"magic": None, "version": None, "n": None, "entries": 0}
    # a header with no records is not empty: it names its dimension
    save_cache(path, 4, {})
    assert run_capture(capsys, info) == (0, "qq22-cache version 1 n=4, 0 entries\n", "")
    rc, out, err = run_capture(capsys, info + ["--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"magic": "qq22-cache", "version": "1", "n": "n=4", "entries": 0}


def test_cache_info_two_field_header_is_reported_by_line(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    path.write_text("qq22-cache 1\n4|0,0,7,0,0|0,0,0,0,0,0,0|3\n")
    rc, out, err = run_capture(capsys, ["cache-info", "--cache", str(path)])
    assert (rc, out, err) == (1, "", "error: line 1: not a cache file header\n")


@pytest.mark.parametrize("n", [5, 2, 0, 99999999999999999999], ids=["5", "2", "0", "huge"])
def test_cache_header_dimension_passes_the_dimension_gate(tmp_path, capsys, n):
    # save_cache never writes such a header; cache-info and load_cache used
    # to accept it, and load_cache(path, 5) loaded the n = 5 record below.
    # The header is judged before it is compared with the requested n = 4
    # (a requested 5 is refused before the file is read)
    path = tmp_path / "memo.cache"
    text = "qq22-cache 1 n=%d\n" % n
    if n == 5:
        text += "5|0,0,0,0,0,0|0,0,0,0,0,0,0,0|3\n"
    path.write_text(text)
    message = "line 1: dimension must be even and >= 4, got %d" % n
    for load in (load_cache, _line_by_line_read):
        with pytest.raises(CacheError, match="^%s$" % message):
            load(path, 4)
    info = ["cache-info", "--cache", str(path)]
    for fmt in ("text", "json"):
        assert run_capture(capsys, info + ["--format", fmt]) == (1, "", "error: %s\n" % message)


HIT4 = "4|0,0,7,0,0|0,0,0,0,0,0,0|3\n"  # the record of TAU4's key
CORRUPT_CACHES = [
    ("qq22-cache 1\n" + HIT4, "line 1: not a cache file header"),
    # faults after the queried key's record, which a query still reports
    ("qq22-cache 1 n=4\n" + HIT4 * 2, "line 3: duplicate key"),
    (
        "qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,0|0,0,0,0,0,0,0|3/1\n",
        "line 3: '3/1' is not the text save_cache writes",
    ),
    (
        "qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,0|0,0,0,0,0,0,0|3\n4|0,0,05,0,0|0,0,0,0,0,0,0|3\n",
        "line 4: '0,0,05,0,0' is not the text save_cache writes",
    ),
    ("qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,-1|0,0,0,0,0,0,0|3\n", "line 3: negative exponent"),
    (
        "qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,0|0,0,0,0,0,0,1|3\n",
        "line 3: primitive exponents not sorted descending",
    ),
    ("qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,0|0,0,0,0,0,0,0\n", "line 3: expected 4 fields"),
    ("qq22-cache 1 n=4\n" + HIT4 + "4|0,0,6,0,0|0,0,0,0,0,0,0|3", "line 3: truncated record"),
    (
        "qq22-cache 1 n=4\n" + HIT4 + "6|0,0,6,0,0|0,0,0,0,0,0,0|3\n",
        "line 3: record does not match n=4",
    ),
]


def test_corrupt_cache_exit_codes(tmp_path, capsys):
    # validation is cache-info's check, so a file that fails it is a
    # mismatch (1); to a query it is bad input (2), reported before the
    # query's own index is read, and whether or not the file holds its key
    path = tmp_path / "bad.cache"
    info = ["cache-info", "--cache", str(path)]
    for text, message in CORRUPT_CACHES:
        path.write_text(text)
        message = "error: %s\n" % message
        assert run_capture(capsys, info) == (1, "", message)
        for index in (TAU4, TAU4 + "x"):
            query = ["correlator", "--n", "4", "--tau-index", index, "--cache", str(path)]
            assert run_capture(capsys, query) == (2, "", message)
        assert path.read_text() == text


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qq22.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
