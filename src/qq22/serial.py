"""Textual serialization of values in the unknown x, and the cache format.

The cache file is line oriented: a header ``qq22-cache 1 n=<n>`` followed by
one record per canonical key,

    n|ambient exponents|sorted primitive exponents|polynomial in x

with rationals rendered as num/den, and a newline ending every line.

A file loads only if every record is the writer's own text: each key field
must read back as ``",".join(map(str, exponents))`` of the exponents it
parses to, and each polynomial as ``poly_to_str`` of its coefficients, so
``07``, ``x^1``, ``1*x``, ``2/4`` or ``x^2+1`` (the writer puts terms in
ascending order) are refused like a sign, whitespace or '_' is.  Loading
also refuses a byte that is not ASCII, a header other than the writer's
(single spaces, ``n=``, canonical decimal version and n), a header n that
``check_dimension`` refuses, a different format version or dimension, a
blank or whitespace-only line, a line break other than ``"\\n"`` (so a CRLF
file is refused), a cut last line, negative exponents (in keys and in the
polynomial), a power of x above ``MAX_EXPONENT``, and primitive exponents
out of descending order or repeated keys.

Records repeat their texts (most polynomials are ``0``, and a few hundred
key fields make up thousands of keys), so load and save do the real work
once per distinct text.  A load cuts the body once at '|': the first n
field, then for each record its ambient field, its primitive field and a
tail, the polynomial, ``"\\n"`` (the only record break) and the next n
field.  The file is accepted when that layout holds, every n field is
``str(n)``, no key repeats, and each distinct text of a column is the
writer's: a compiled pattern of the writer's grammar accepts it (one match
over a key column's distinct texts) or ``_verdict`` passes it.  The patterns
do not grow with n, and are built only once the first ambient field holds
n + 1 exponents, so a short file naming a huge n asks for no more memory
than its text.  Values are parsed only when used.  A load asked for a key the
file holds parses that one record and builds no memo.  Any other load parses
each distinct text once and builds the memo through one ``dict(zip(...))``,
so equal values share one tuple.  A file that is not accepted is walked
line by line to its first bad line: a line is cut at '|', and ``_verdict``
judges each distinct text of a column when a line first holds it, so no
text after the bad line is judged.

Saving writes a temporary file next to the cache and renames it over the
cache, so a reader sees either the old file or the new one, never a cut one.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import threading
from _sre import MAXREPEAT
from fractions import Fraction
from itertools import filterfalse
from operator import itemgetter

from .model import check_dimension
from .scalars import rational_str

CACHE_MAGIC = "qq22-cache"
CACHE_VERSION = 1
# The largest power of x a polynomial text may name.  Parsing builds a list
# of that many coefficients, so the bound keeps a short corrupt text from
# asking for unbounded memory; the engine's values have far lower degree.
MAX_EXPONENT = 1024
_POLY_CHARS = frozenset("0123456789+-*/^x")
_PARSE_ERRORS = (ValueError, ArithmeticError)  # what a bad field or polynomial raises
_NOT_WRITTEN = "%r is not the text save_cache writes"


def poly_to_str(coeffs, descending=False) -> str:
    """Render a rational coefficient tuple as a polynomial in x."""
    if len(coeffs) == 1 and type(coeffs[0]) is int:
        return str(coeffs[0])  # a constant, as most cached values are
    terms = [(k, c) for k, c in enumerate(coeffs) if c]
    if not terms:
        return "0"
    if descending:
        terms.reverse()
    parts = []
    for pos, (k, c) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if pos else "")
        mag = rational_str(abs(c))
        if k == 0:
            body = mag
        else:
            var = "x" if k == 1 else "x^%d" % k
            body = var if mag == "1" else "%s*%s" % (mag, var)
        parts.append(sign + body)
    return "".join(parts)


def _int(text):
    """int() of checked digits; a text too long to read is named in a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("number of %d digits is too long: %r..." % (len(text.lstrip("-")), text[:12])) from None


def _coefficient(text):
    """An unsigned coefficient: an int when it has no '/', else a Fraction."""
    if text.isdigit():
        return _int(text)
    num, _, den = text.partition("/")
    return Fraction(_int(num), _int(den)) if num.isdigit() and den.isdigit() else Fraction(text)


def poly_from_str(s: str):
    """Parse the output of poly_to_str back into a coefficient tuple.

    Only that grammar is read: ASCII digits, terms joined by one sign (the
    first term signed only by '-'), a coefficient joined to x by '*', and no
    whitespace, '_' or other text, and no power of x above ``MAX_EXPONENT``.
    A coefficient written without '/' is an int and one with '/' a Fraction,
    the engine's memo form of each value.
    """
    if not s:
        raise ValueError("empty polynomial")
    if not _POLY_CHARS.issuperset(s):
        raise ValueError("bad character in polynomial %r" % s)
    digits = s[1:] if s[0] == "-" else s
    if digits.isdigit():  # a constant, as most cached values are
        value = _int(digits)
        return ((-value if s[0] == "-" else value),) if value else ()
    chunks = []
    start = 0
    for k, ch in enumerate(s):
        if ch in "+-" and k > start and s[k - 1] not in "+-*/^":
            chunks.append(s[start:k])
            start = k
    chunks.append(s[start:])
    coeffs = {}
    for pos, chunk in enumerate(chunks):
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:] if chunk[0] == "-" or (pos and chunk[0] == "+") else chunk
        if body[:1] in ("+", "-"):
            raise ValueError("bad sign in %r" % chunk)
        head, var, tail = body.partition("x")
        if not var:
            coef, k = _coefficient(head), 0
        else:
            if tail.startswith("^-"):
                raise ValueError("negative exponent in %r" % chunk)
            if head and not head.endswith("*"):
                raise ValueError("coefficient without '*' in %r" % chunk)
            coef = _coefficient(head[:-1]) if head else 1
            if not tail:
                k = 1
            elif tail[0] == "^" and tail[1:].isdigit():
                k = _int(tail[1:])
                if k > MAX_EXPONENT:
                    raise ValueError("exponent too large in %r" % chunk)
            else:
                raise ValueError("bad polynomial term %r" % chunk)
        coeffs[k] = coeffs.get(k, 0) + sign * coef
    out = [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _exponents(field):
    """Comma-separated exponents: ASCII digits, or a minus sign and digits.

    A negative exponent is returned as read, for the caller to report.
    """
    values = field.split(",")
    for v in values:
        digits = v[1:] if v[:1] == "-" else v
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError("bad exponent %r" % v)
    return tuple(map(_int, values))


def _key_text(exponents):
    return ",".join(map(str, exponents))


# The writer's text of each exponent below 100: a key field made only of
# these is nonnegative and canonical, and is parsed without int().
_SMALL_EXPONENTS = {str(v): v for v in range(100)}


def _small(text):
    """The exponents of a key field made only of ``_SMALL_EXPONENTS`` texts;
    a KeyError for any other field."""
    return tuple(map(_SMALL_EXPONENTS.__getitem__, text.split(",")))


class CacheError(Exception):
    pass


def _header_int(text):
    """A header number as ``save_cache`` writes it: a canonical decimal int."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise CacheError("line 1: malformed header")
    return value


def save_cache(path, n, memo):
    check_dimension(n)
    # sorted(memo) order without comparing key pairs: ambient parts sorted,
    # then by primitive rank; each distinct field and polynomial rendered once
    groups = {}
    for (amb, prim), poly in memo.items():
        groups.setdefault(amb, {})[prim] = poly
    prims = sorted({prim for _, prim in memo})
    rank = dict(zip(prims, range(len(prims))))
    fields = dict(zip(prims, map(_key_text, prims)))
    polys = {poly: poly_to_str(poly) for poly in set(memo.values())}
    lines = ["%s %d n=%d" % (CACHE_MAGIC, CACHE_VERSION, n)]
    for amb, group in sorted(groups.items()):  # ambient parts are unique
        head = "%d|%s|" % (n, _key_text(amb))
        for prim in sorted(group, key=rank.__getitem__):
            lines.append(head + fields[prim] + "|" + polys[group[prim]])
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_cache(path, n, key=None):
    """Read a cache file written by ``save_cache`` for dimension n.

    A file loads only if every record is the writer's own text.  An empty or
    whitespace-only file is an empty cache.  Raises ``CacheError`` naming the
    line for a byte that is not ASCII, a blank header or one other than
    ``save_cache`` writes (a header n that ``check_dimension`` refuses
    among them), a malformed or blank record (``"\\n"`` is the only
    line break), a record cut short (the writer ends every file with a
    newline), a negative exponent, a power of x above ``MAX_EXPONENT``,
    primitive exponents out of canonical (descending) order, a repeated key,
    or a key field or polynomial that does not render back to its own text.
    Each distinct field or polynomial text of an accepted file is judged
    once, by a pattern of the writer's grammar or by ``_verdict``; a file
    that is not accepted is named by its first bad line and that line's
    first fault.
    An n that ``check_dimension`` refuses is its ValueError, raised before
    the file is opened.

    With key, a canonical memo key (ambient exponents, primitive exponents
    sorted descending), the file is checked the same way; when it holds
    key the result is ``{key: value}``, and only that record's polynomial is
    parsed; otherwise it is the whole memo.
    """
    return _read_cache(path, check_dimension(n), key)[1]


def _read_cache(path, n=None, key=None):
    """The dimension and the memo of a cache file, checked as by ``load_cache``.

    With n None the header's dimension is accepted.  An empty or
    whitespace-only file has dimension None.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CacheError(
            "line %d: byte 0x%02x is not ASCII" % (lineno, data[exc.start])
        ) from None
    if not text or text.isspace():  # strip() would copy the text
        return None, {}
    if not text.endswith("\n"):
        raise CacheError("line %d: truncated record" % (text.count("\n") + 1))
    first, _, body = text.partition("\n")
    header = first.split()
    if len(header) != 3 or header[0] != CACHE_MAGIC:
        raise CacheError("line 1: not a cache file header")
    version = _header_int(header[1])
    file_n = _header_int(header[2][2:] if header[2].startswith("n=") else "")
    if " ".join(header) != first:
        raise CacheError("line 1: malformed header")
    if version != CACHE_VERSION:
        raise CacheError("unsupported cache format version %d" % version)
    try:
        check_dimension(file_n)
    except ValueError as exc:
        raise CacheError("line 1: %s" % exc) from None
    if n is None:
        n = file_n
    elif file_n != n:
        raise CacheError("cache is for n=%d, requested n=%d" % (file_n, n))
    return n, _records(body, n, key)


def _verdict(n, column, text):
    """The value of a record's text in column 0 (n), 1 (ambient exponents),
    2 (primitive exponents) or 3 (polynomial), and its fault: None, or
    ``(rank, message)`` for the first check it fails.  The rank is the
    check's place in the order a record is checked: 1 a key field that does
    not parse, 2 an n field that is not one number, 3 a polynomial that does
    not parse, 4 a field of the wrong n or length, 5 a negative exponent,
    6 primitive exponents out of order, 7 (for a whole record) a repeated
    key, 8 a text other than the writer's."""
    if column == 3:
        try:
            poly = poly_from_str(text)
        except _PARSE_ERRORS as exc:
            return None, (3, str(exc))
        return poly, None if poly_to_str(poly) == text else (8, _NOT_WRITTEN % text)
    try:
        values = _small(text)
        written = True  # so nonnegative and canonical
    except KeyError:
        try:
            values = _exponents(text)
        except _PARSE_ERRORS as exc:
            return None, (1, str(exc))
        written = False
    if column == 0:
        try:
            (rec_n,) = values
        except ValueError as exc:
            return None, (2, str(exc))
        fits = rec_n == n
    else:
        fits = len(values) == (n + 1 if column == 1 else n + 3)
    if not fits:
        return values, (4, "record does not match n=%d" % n)
    if not written and min(values) < 0:
        return values, (5, "negative exponent")
    if column == 2 and list(values) != sorted(values, reverse=True):
        return values, (6, "primitive exponents not sorted descending")
    if written or _key_text(values) == text:
        return values, None
    return values, (8, _NOT_WRITTEN % text)


@functools.lru_cache(maxsize=4)
def _grammar(n):
    """Compiled patterns of texts that ``_verdict`` passes for dimension n.

    The first two match the texts of a key column, each followed by '|':
    ambient fields of n + 1 exponents below 100, and primitive fields of
    n + 3 one-digit exponents in descending order.  Counted repeats keep
    each pattern's size independent of n; an n beyond re's repeat count
    gets None, and ``_verdict`` judges those columns.  Each text is matched
    in a lookahead, which the regex engine does not backtrack into, so a
    match that fails takes linear time.  The third matches one record's
    tail: an int constant of at most 100 digits, a newline and the next n
    field.
    """
    tail = re.compile("(?:0|-?[1-9][0-9]{0,99})\n%d" % n)
    if n + 2 >= MAXREPEAT:
        return None, None, tail
    amb = "(?:[0-9]|[1-9][0-9])(?:,(?:[0-9]|[1-9][0-9])){%d}" % n
    prim = "(?=[0-9](?:,[0-9]){%d}\\|)" % (n + 2)
    prim += "".join("(?:%d,?)*" % d for d in range(9, -1, -1))
    columns = [re.compile("(?:(?=((?:%s)\\|))\\1)*" % item) for item in (amb, prim)]
    return columns + [tail]


def _judged(n, column, texts, pattern):
    """The verdicts of a key column's texts, or none when pattern accepts
    them all."""
    if pattern is not None and pattern.fullmatch("|".join(texts) + "|"):
        return {}
    return {t: _verdict(n, column, t) for t in texts}


def _records(body, n, key):
    """The memo of the records in body, or only key's record when a sound
    body holds it; a body that is not sound (see the module docstring) is
    named by ``_first_fault``."""
    if not body:
        return {}
    sn = str(n)
    cells = body.split("|")
    cells[-1] += sn  # so the last tail has the layout of the others
    # three cells a record after the first n field, and a first ambient
    # field of n + 1 exponents, so no pattern is built for an n the file
    # cannot hold; each tail's one newline is checked below
    if len(cells) % 3 == 1 and cells[0] == sn and cells[1].count(",") == n:
        amb, prim, tails = cells[1::3], cells[2::3], cells[3::3]
        del cells
        texts = [set(amb), set(prim), set(tails)]
        amb_p, prim_p, const_p = _grammar(n)
        judged = [_judged(n, 1, texts[0], amb_p), _judged(n, 2, texts[1], prim_p), {}]
        for tail in filterfalse(const_p.fullmatch, texts[2]):
            poly, _, rest = tail.partition("\n")
            if rest != sn:  # not one newline and str(n) after the polynomial
                raise _first_fault(body, n)
            judged[2][tail] = _verdict(n, 3, poly)
        cut = -1 - len(sn)
        if not any(fault for table in judged for _, fault in table.values()):
            if key is not None:
                # every text is now the writer's text of its value, so equal
                # keys are equal texts
                records = dict(zip(zip(amb, prim), tails))
                tail = records.get((_key_text(key[0]), _key_text(key[1])))
                if tail and len(records) == len(tails):
                    verdict = judged[2].get(tail)
                    return {key: verdict[0] if verdict else poly_from_str(tail[:cut])}
                del records
            parses = (_small, _small, lambda tail: poly_from_str(tail[:cut]))
            a, p, v = (
                {t: table[t][0] if t in table else parse(t) for t in column}
                for column, table, parse in zip(texts, judged, parses)
            )
            # keys and values are listed first so that the cells are freed
            # before the memo is built, which lowers the load's peak memory
            keys = list(zip(map(a.__getitem__, amb), map(p.__getitem__, prim)))
            values = list(map(v.__getitem__, tails))
            del texts, amb, prim, tails
            memo = dict(zip(keys, values))
            if len(memo) == len(values):
                return memo
    raise _first_fault(body, n)


def _first_fault(body, n):
    """``CacheError`` naming the first bad line of a body ``_records``
    refused, by one walk over its lines that judges each distinct text of a
    column with ``_verdict`` when a line first holds it."""
    tables = ({}, {}, {}, {})
    seen = set()
    # a body ends in a newline, so the walk ends at the empty text after it
    for lineno, line in enumerate(body.split("\n"), start=2):
        texts = line.split("|")
        if len(texts) != 4:
            return CacheError("line %d: expected 4 fields" % lineno)
        record = []
        for column, (table, text) in enumerate(zip(tables, texts)):
            if text not in table:
                table[text] = _verdict(n, column, text)
            record.append(table[text])
        fault = min((f for _, f in record if f), key=itemgetter(0), default=None)
        if fault is None or fault[0] > 7:  # a repeated key outranks only rank 8
            pair = (record[1][0], record[2][0])
            if pair in seen:
                fault = (7, "duplicate key")
            seen.add(pair)
        if fault:
            return CacheError("line %d: %s" % (lineno, fault[1]))
