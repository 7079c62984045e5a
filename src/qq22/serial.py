"""Textual serialization of values in the unknown x, and the cache format.

The cache file is line oriented: a header ``qq22-cache 1 n=<n>`` followed by
one record per canonical key,

    n|ambient exponents|sorted primitive exponents|polynomial in x

with rationals rendered as num/den, and a newline ending every line.
Loading refuses a different format version or dimension, a blank first
line ahead of records, a cut last line, negative exponents (in keys and in
the polynomial), and non-canonical or repeated keys.  Saving writes a
temporary file next to the cache and renames it over the cache, so a reader
sees either the old file or the new one, never a cut one.
"""

from __future__ import annotations

import contextlib
import os
import threading
from fractions import Fraction

from .scalars import rational_str

CACHE_MAGIC = "qq22-cache"
CACHE_VERSION = 1


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
    """Parse the output of poly_to_str back into a coefficient tuple."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
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
    for chunk in chunks:
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValueError("bad polynomial term %r" % chunk)
        if "x" in body:
            head, _, tail = body.partition("x")
            if head.endswith("*"):
                head = head[:-1]
            coef = Fraction(head) if head else Fraction(1)
            if tail.startswith("^"):
                k = int(tail[1:])
                if k < 0:
                    raise ValueError("negative exponent in %r" % chunk)
            elif tail == "":
                k = 1
            else:
                raise ValueError("bad polynomial term %r" % chunk)
        else:
            coef = Fraction(body)
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
    if not coeffs:
        return ()
    out = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class CacheError(Exception):
    pass


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
    ``CacheError`` naming the line for a blank or malformed header, a
    malformed record, a record cut short (the writer ends every file with a
    newline), a negative exponent, primitive exponents out of canonical
    (descending) order, or a repeated key.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        return {}
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise CacheError("line %d: truncated record" % len(lines))
    header = lines[0].split()
    if len(header) != 3 or header[0] != CACHE_MAGIC:
        raise CacheError("line 1: not a cache file header")
    try:
        version = int(header[1])
        file_n = int(header[2].partition("=")[2])
    except ValueError:
        raise CacheError("line 1: malformed header") from None
    if version != CACHE_VERSION:
        raise CacheError("unsupported cache format version %d" % version)
    if file_n != n:
        raise CacheError("cache is for n=%d, requested n=%d" % (file_n, n))
    memo = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise CacheError("line %d: expected 4 fields" % lineno)
        try:
            rec_n = int(parts[0])
            amb = tuple(int(v) for v in parts[1].split(","))
            prim = tuple(int(v) for v in parts[2].split(","))
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
    return memo
