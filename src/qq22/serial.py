"""Textual serialization of values in the unknown x, and the cache format.

The cache file is line oriented: a header ``qq22-cache 1 n=<n>`` followed by
one record per canonical key,

    n|ambient exponents|sorted primitive exponents|polynomial in x

with rationals rendered as num/den, and a newline ending every line.
Loading refuses a byte that is not ASCII (the writer writes only ASCII),
a header other than the writer's (single spaces, ``n=``, canonical decimal
version and n), a different format version or dimension, a blank first
line ahead of records, a cut last line, negative exponents (in keys and in
the polynomial), non-canonical or repeated keys, and text the writer never
produces: a sign, whitespace, '_' or a non-ASCII digit in a key field, and
a doubled sign or a coefficient not joined to x by '*' in the polynomial.
Saving writes a temporary file next to the cache and renames it over the
cache, so a reader sees either the old file or the new one, never a cut one.
"""

from __future__ import annotations

import contextlib
import os
import threading
from fractions import Fraction

from .scalars import rational_str

CACHE_MAGIC = "qq22-cache"
CACHE_VERSION = 1
_POLY_CHARS = frozenset("0123456789+-*/^x")


def poly_to_str(coeffs, descending=False) -> str:
    """Render a rational coefficient tuple as a polynomial in x."""
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


def poly_from_str(s: str):
    """Parse the output of poly_to_str back into a coefficient tuple.

    Only that grammar is read: ASCII digits, terms joined by one sign (the
    first term signed only by '-'), a coefficient joined to x by '*', and no
    whitespace, '_' or other text.
    """
    if not s:
        raise ValueError("empty polynomial")
    if not _POLY_CHARS.issuperset(s):
        raise ValueError("bad character in polynomial %r" % s)
    if s == "0":
        return ()
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
            coef, k = Fraction(head), 0
        else:
            if tail.startswith("^-"):
                raise ValueError("negative exponent in %r" % chunk)
            if head and not head.endswith("*"):
                raise ValueError("coefficient without '*' in %r" % chunk)
            coef = Fraction(head[:-1]) if head else Fraction(1)
            if not tail:
                k = 1
            elif tail[0] == "^" and tail[1:].isdigit():
                k = int(tail[1:])
            else:
                raise ValueError("bad polynomial term %r" % chunk)
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
    out = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _exponents(field):
    """Comma-separated exponents: ASCII digits, or a minus sign and digits.

    A negative exponent is returned as read, for the caller to report.
    """
    values = field.split(",")
    if not (field.isascii() and field.replace(",", "").isdigit()):
        for v in values:
            digits = v[1:] if v[:1] == "-" else v
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError("bad exponent %r" % v)
    return tuple(map(int, values))


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
    lines = ["%s %d n=%d" % (CACHE_MAGIC, CACHE_VERSION, n)]
    for (amb, prim), poly in sorted(memo.items()):
        lines.append(
            "%d|%s|%s|%s"
            % (
                n,
                ",".join(str(v) for v in amb),
                ",".join(str(v) for v in prim),
                poly_to_str(poly),
            )
        )
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_cache(path, n):
    """Read a cache file written by ``save_cache`` for dimension n.

    An empty or whitespace-only file is an empty cache.  Raises
    ``CacheError`` naming the line for a byte that is not ASCII, a blank
    header or one other than ``save_cache`` writes, a malformed record, a
    record cut short (the writer ends every file with a newline), a negative
    exponent, primitive exponents out of canonical (descending) order, or a
    repeated key.
    """
    return _read_cache(path, n)[1]


def _read_cache(path, n=None):
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
    if not text.strip():
        return None, {}
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise CacheError("line %d: truncated record" % len(lines))
    header = lines[0].split()
    if len(header) != 3 or header[0] != CACHE_MAGIC:
        raise CacheError("line 1: not a cache file header")
    version = _header_int(header[1])
    file_n = _header_int(header[2][2:] if header[2].startswith("n=") else "")
    if " ".join(header) != lines[0]:
        raise CacheError("line 1: malformed header")
    if version != CACHE_VERSION:
        raise CacheError("unsupported cache format version %d" % version)
    if n is None:
        n = file_n
    elif file_n != n:
        raise CacheError("cache is for n=%d, requested n=%d" % (file_n, n))
    memo = {}
    fields = {}  # key fields repeat across records: parse each text once
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise CacheError("line %d: expected 4 fields" % lineno)
        try:
            for field in parts[:3]:
                if field not in fields:
                    fields[field] = _exponents(field)
            (rec_n,), amb, prim = map(fields.get, parts[:3])
            poly = poly_from_str(parts[3])
        except (ValueError, ArithmeticError) as exc:
            raise CacheError("line %d: %s" % (lineno, exc)) from None
        if rec_n != n or len(amb) != n + 1 or len(prim) != n + 3:
            raise CacheError("line %d: record does not match n=%d" % (lineno, n))
        if min(amb + prim) < 0:
            raise CacheError("line %d: negative exponent" % lineno)
        if list(prim) != sorted(prim, reverse=True):
            raise CacheError(
                "line %d: primitive exponents not sorted descending" % lineno
            )
        if (amb, prim) in memo:
            raise CacheError("line %d: duplicate key" % lineno)
        memo[(amb, prim)] = poly
    return n, memo
