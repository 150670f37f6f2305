"""Numbers as the CLI prints and reads them, one value or a whole matrix block.

``matrix_lines`` prints a matrix's ``dim**2`` lines in array passes, byte
for byte as ``fmt`` (``%.17g``) prints each part.  ``matrix_parts`` reads an
operator file's ``matrix`` field in array passes, bit for bit as ``json.loads``
reads each part, or refuses it.  Each docstring gives its exactness argument.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

#: Matrix parts that ``matrix_lines`` prints per pass, whose arrays then stay
#: near 0.5 MB.  4096 printed dims 128 to 256 about a tenth faster, but left
#: more heap resident after the passes, which raised a later peak RSS.
BLOCK_PARTS = 2048

#: Characters of the ``matrix`` field that ``matrix_parts`` reads per pass,
#: each block cut after a comma.  Its arrays then stay near 1 MB; one pass over
#: a dim-256 field raised the benchmark's peak RSS by about 30 MB.
BLOCK_BYTES = 1 << 17

#: 2**27 + 1, which splits a double into two halves of 26 bits (Veltkamp).
_SPLITTER = 134217729.0

#: A JSON number, in ASCII digits only.
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")

#: The separators before a part, little-endian: within a pair, between pairs
#: of a row, between rows, and before the first part.
_PAIR, _NEXT, _ROW, _OPEN = (
    int.from_bytes(gap, "little") for gap in (b",", b"],[", b"]],[[", b"[[[")
)
_ASCII_ZEROS = np.uint64(0x3030303030303030)


def fmt(x: float) -> str:
    """``x`` to 17 significant digits; + 0.0 turns -0.0 into 0.0."""
    return "%.17g" % (x + 0.0)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """``_print_parts``' tables, built by numpy on first use.

    A part's slot is six little-endian uint64 words: its first word (a tab,
    the sign and, below 1, "0." and zeros, right-aligned before the lead
    digit), digits 1-16, a dot, and digits 1-16 again.  A mask keeps what the
    part's exponent and trailing zeros print; the NULs left are dropped.
    """
    ten = np.arange(10)
    # The four ASCII digits of 0000-9999 as the low half of a word.
    halves = np.add.outer(ten, ten << 8).ravel(), np.add.outer(ten << 16, ten << 24).ravel()
    quads = np.add.outer(*halves).ravel().astype(np.uint64) + np.uint64(0x30303030)
    # Trailing zero digits of 00-99 and of 0000-9999, 4 for 0000.
    pair_zeros = np.outer(1 + (ten == 0), ten == 0).ravel()
    quad_zeros = (pair_zeros + np.outer(pair_zeros, np.arange(100) == 0)).ravel().astype(np.uint8)
    exponent = np.arange(-4, 17)[:, None, None]
    byte, negative = np.arange(8), np.arange(2)[:, None]
    short = np.where(exponent < 0, 1 - exponent, 0)  # length of "0." and the zeros after it
    tab = 6 - short - negative  # where the tab goes; a sign follows it
    # First words by 2 * (exponent + 4) + sign, with "0" for the lead digit.
    first_words = np.where(
        byte >= 7 - short,
        np.where(byte == 8 - short, ord("."), ord("0")),
        np.where(byte == tab, ord("\t"), (byte == tab + 1) * negative * ord("-")),
    ).astype(np.uint8).view("<u8").ravel()
    # Masks by 17 * (exponent + 4) + trailing zeros.
    zeros, digit = np.arange(17)[None, :, None], np.arange(16)
    keep = np.zeros((21, 17, 48), bool)
    keep[..., :8] = True
    keep[..., 8:24] = np.where(exponent < 0, digit < 16 - zeros, digit < exponent)
    keep[..., 24] = ((exponent >= 0) & (16 - zeros > exponent))[..., 0]
    keep[..., 32:] = (exponent >= 0) & (digit >= exponent) & (digit < 16 - zeros)
    masks = (keep * np.uint8(255)).view("<u8").reshape(21 * 17, 6)
    # 10**k for k up to 22, each exact, and its Veltkamp split into halves of 26 bits.
    pow10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
    high = _SPLITTER * pow10 - (_SPLITTER * pow10 - pow10)
    tables = quads, quad_zeros, first_words, masks, np.stack([pow10, high, pow10 - high])
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def _two_product(
    a: np.ndarray, b: np.ndarray, b_high: np.ndarray, b_low: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct of ``a`` and ``b``, split as b_high + b_low: (fl(a * b), err).

    a * b = p + err exactly where no step over- or underflows.
    """
    p = a * b
    c = _SPLITTER * a
    a_high = c - (c - a)
    a_low = a - a_high
    err = a_high * b_high - p
    err += a_high * b_low
    err += a_low * b_high
    err += a_low * b_low
    return p, err


def _rounded(a: np.ndarray, k: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    """``a * 10**k`` rounded half to even, as int64, exact where the product is at least 2**53."""
    p, err = _two_product(a, pow10[0][k], pow10[1][k], pow10[2][k])
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _print_parts(parts: np.ndarray, slots: np.ndarray) -> None:
    """Write each part as a tab and ``fmt``'s text into its 48-byte slot, NUL-padded.

    ``parts`` is a (rows, 2 * dim) float64 block and ``slots`` the
    (rows, dim, 12) uint64 view of its lines' slots.
    """
    quads, quad_zeros, first_words, masks, pow10 = _tables()
    x = parts.ravel()
    a = np.abs(x)
    e = np.zeros_like(a)
    np.log10(a, out=e, where=a != 0.0)
    np.floor(e, out=e)
    far = ~((e >= -5.0) & (e <= 16.0))  # NaN included
    np.copyto(a, 1.0, where=far)
    np.copyto(e, 0.0, where=far)
    e = e.astype(np.int64)
    d = _rounded(a, 16 - e, pow10)
    off = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
    off = off[d[off] != 0]
    if off.size:  # log10 put e one off: move it, once
        e[off] += np.where(d[off] >= 10**17, 1, -1)
        d[off] = _rounded(a[off], np.clip(16 - e[off], 0, 22), pow10)
    far |= (e < -4) | (e > 16)
    np.clip(e, -4, 16, out=e)

    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    q_high, q_low = high // 10**4, low // 10**4
    r_high, r_low = high - q_high * 10**4, low - q_low * 10**4
    zeros = quad_zeros[r_low]
    z = np.flatnonzero(r_low == 0)
    if z.size:  # digits 13-16 are zeros: count on through digits 1-12
        q, rh, qh = q_low[z], r_high[z], q_high[z]
        zeros[z] = 4 + quad_zeros[q] + (q == 0) * (quad_zeros[rh] + (rh == 0) * quad_zeros[qh])

    words = masks.take(17 * (e + 4) + zeros, axis=0)
    first = first_words.take(2 * (e + 4) + (x < 0))
    first += lead.view(np.uint64) << np.uint64(56)
    words[:, 0] = first
    words[:, 1::3] &= (quads.take(q_high) | quads.take(r_high) << np.uint64(32))[:, None]
    words[:, 2::3] &= (quads.take(q_low) | quads.take(r_low) << np.uint64(32))[:, None]
    words[:, 3] &= ord(".")
    slots[...] = words.reshape(slots.shape)

    slow = np.flatnonzero(far)
    if slow.size:
        texts = np.array([b"\t" + fmt(v).encode() for v in x[slow].tolist()], "S48")
        byte_slots = slots.view(np.uint8).reshape(slots.shape[:2] + (2, 48))
        at = np.unravel_index(slow, byte_slots.shape[:3])
        byte_slots[at] = texts.view(np.uint8).reshape(-1, 48)


def matrix_lines(matrix: np.ndarray) -> list[str]:
    """The ``matrix\\ti\\tj\\tre\\tim`` lines of a square complex matrix, one string per chunk.

    Each part prints byte for byte as ``fmt`` prints it.  ``%.17g`` prints
    a nonzero x as its 17-digit rounding D * 10**(e - 16), D in [10**16,
    10**17), and in fixed notation when the exponent e is in [-4, 16].  Those
    parts are computed here in array passes, exactly:

    - 10**k is an exact double for k up to 22.  So for k = 16 - e, Dekker's
      TwoProduct (Veltkamp splits; no overflow or underflow in this range)
      gives |x| * 10**k = p + err exactly, with p = fl(|x| * 10**k).
    - Where |x| * 10**k >= 10**16 > 2**53, p is an even integer, so
      p + rint(err) is that product rounded half to even, as ``%.17g``
      rounds it.
    - e starts as floor(log10 |x|), which can be one off next to a power of
      ten; a D outside [10**16, 10**17) moves e by one and is computed once
      more.  Once is enough: no double lies within 8e-17 (relative) below
      10**m for m in [-5, 17], so a D computed one exponent too high is at
      most 10**16 - 1, never 10**16.

    Zeros print "0".  Every other part (e outside [-4, 16], which ``%.17g``
    prints in scientific notation; subnormals; huge values) goes through
    ``fmt``, one value at a time.  The lines are built as bytes in fixed
    slots, BLOCK_PARTS parts per pass, and the NULs that pad the slots are
    dropped in one compaction per chunk of rows.
    """
    dim = len(matrix)
    parts = np.ascontiguousarray(matrix).view(np.float64)  # re, im interleaved per row
    rows = max(1, BLOCK_PARTS // (2 * dim))
    width = len(str(dim))
    labels = np.array([b"%d" % k for k in range(1, dim + 1)], f"S{width}")
    labels = labels.view(np.uint8).reshape(dim, width)
    # Each line: "\nmatrix\t", i, "\t", j, the re slot and the im slot.  The
    # padding goes before "\n", so that the slots are 8-byte aligned.
    prefix = -(-(9 + 2 * width) // 8) * 8
    at = prefix - (9 + 2 * width)
    frame = np.zeros((rows, dim, prefix + 96), np.uint8)
    frame[..., at : at + 8] = np.frombuffer(b"\nmatrix\t", np.uint8)
    frame[..., at + 8 + width] = ord("\t")
    frame[..., at + 9 + width : prefix] = labels
    frame[0, 0, at] = 0  # a chunk starts without "\n"
    chunks = []
    for top in range(0, dim, rows):
        block = frame[: min(rows, dim - top)]
        block[..., at + 8 : at + 8 + width] = labels[top : top + len(block), None]
        _print_parts(parts[top : top + len(block)], block[..., prefix:].view(np.uint64))
        text = block.reshape(-1)
        chunks.append(str(text[text != 0], "ascii"))
    return chunks


@functools.cache
def _read_tables() -> tuple[np.ndarray, ...]:
    """``matrix_parts``' tables, built by numpy on first use.

    The masks of a word's low 0-8 bytes; by fraction length k = 0-23 (23
    stands for any other), the masks of the digit bytes of the fraction's
    last 24 bytes read as three little-endian words; and 10**k up to k = 18.
    """
    masks = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
    digits = np.clip(np.arange(24)[:, None] - np.array([16, 8, 0]), 0, 8)
    digits[23] = 0
    tens = np.array([10**k for k in range(19)] + [0] * 5, np.uint64)
    tables = masks, ~masks[8 - digits], tens
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def _records(buf: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-byte record at each byte of ``buf``, for gathers at any offset."""
    return np.ndarray((len(buf) - width + 1,), np.dtype((np.void, width)), buf, 0, (1,))


def matrix_parts(
    text: str, dim: int, start: int = 0, stop: int | None = None
) -> np.ndarray | None:
    """The ``2 * dim**2`` float64 parts of a ``matrix`` field's text, or None.

    ``text[start:stop]`` is the field from its ``[`` to its last ``]``; the
    bounds spare a large file's caller a copy of the field.  The parts come
    re, im, row by row, each with the bits that ``json.loads`` gives it
    (``float`` of the text, or of the ``int`` for an integer).  None means
    that this reader could not show that, and the caller reads the file as
    JSON instead.

    - *Structure.*  With JSON whitespace dropped, the separators must be
      those of ``[[[re,im],...],...]`` with ``dim`` rows of ``dim`` pairs.
      Whitespace that splits a number refuses the field.
    - *Conversion.*  A part ``-?D.F`` with one digit D and k <= 22 fraction
      digits is x = M / 10**k, M = D * 10**k + F < 2**64, summed from 8
      digits a word (SWAR).  q = fl(fl(M) / 10**k) lies within 1.5 ulp(q)
      of x: fl(M) is off by 2**-53 relative, the quotient by half an ulp.
      10**k is exact, so ``_two_product`` on ``_tables``' Veltkamp split
      gives q * 10**k = p + err exactly; M - p is exact too (Sterbenz, with
      M split at bit 11 to stay exact above 2**53).  So t = (M - p - err) /
      (ulp(q) * 10**k), the error x - q in ulps, is off by a few units of
      2**-52 at most, and x rounds to q + rint(t) * ulp(q) when t is not
      within 2**-30 of a half and q is no power of two: with |rint(t)| <= 1,
      x then stays in q's binade or rounds up to its top.  No x here is a
      tie: the denominator 10**k has fewer than 53 factors of 2.
    - *The rest.*  Every other part (an integer, whose ``-0`` reads as +0.0;
      an exponent; a longer one; one of the cases above) must match the
      JSON number grammar, and is read by ``float`` or ``int`` one at a
      time.  A part these refuse, or an infinite one, refuses the field.

    The field is read in blocks of about BLOCK_BYTES characters, each cut
    after a comma and begun where the last part before it ended.  Nothing
    sized by ``dim`` is built before the parts are counted.
    """
    end = len(text) if stop is None else stop
    count = 2 * dim * dim
    if count > end - start or not text.isascii():  # every part takes a character
        return None
    masks, digit_masks, tens = _read_tables()
    pow10 = _tables()[4]
    period = 2 * dim
    blocks, done = [], 0
    while True:
        cut = end if start + BLOCK_BYTES >= end else text.rfind(",", start, start + BLOCK_BYTES) + 1
        block = text[start:cut].encode()
        packed = block.replace(b" ", b"")
        if b"\n" in packed or b"\r" in packed or b"\t" in packed:
            packed = packed.translate(None, b"\t\n\r")
        # The packed block, after 24 ASCII zeros (for the fraction words of
        # its first part) and before 8 NULs (for the separator word of its last).
        buf = np.empty(len(packed) + 32, np.uint8)
        buf[:24] = ord("0")
        buf[-8:] = 0
        chars = buf[24:-8]
        chars[:] = np.frombuffer(packed, np.uint8)
        part = (chars != ord(",")) & ((chars | 6) != ord("_"))  # not ",", "[" or "]"
        edges = np.flatnonzero(part[1:] != part[:-1]) + 25
        n = len(edges) >> 1
        if n == 0 or len(edges) & 1 or part[0] or done + n > count:
            return None
        if len(packed) < len(block):  # no whitespace inside a part
            raw = np.frombuffer(block, np.uint8)
            apart = (raw > ord(" ")) & (raw != ord(",")) & ((raw | 6) != ord("_"))
            if np.count_nonzero(apart[1:] > apart[:-1]) != n:
                return None
        first, after = edges[0::2], edges[1::2]
        # Each part's separator, from the end of the part before it.
        gap = np.empty_like(first)
        gap[0] = 24
        gap[1:] = after[:-1]
        want = np.full(n, _PAIR, np.uint64)
        want[done & 1 :: 2] = _NEXT
        want[-done % period :: period] = _ROW
        if done == 0:
            want[0] = _OPEN
        seps = _records(buf, 8)[gap].view(np.uint64) & masks.take(np.minimum(first - gap, 8))
        if not (seps == want).all() or cut == end and packed[after[-1] - 24 :] != b"]]]":
            return None

        negative = buf[first] == ord("-")
        lead = first + negative
        k = np.minimum((after - lead - 2).view(np.uint64), 23)
        words = _records(buf, 24)[after - 24].view(np.uint64).reshape(n, 3) ^ _ASCII_ZEROS
        words &= digit_masks.take(k, axis=0)
        bad = (words | (words + np.uint64(0x0606060606060606))) & np.uint64(0xF0F0F0F0F0F0F0F0)
        words = (words * np.uint64(10 << 8 | 1) >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF)
        words = (words * np.uint64(100 << 16 | 1) >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF)
        words = words * np.uint64(10000 << 32 | 1) >> np.uint64(32)
        d = buf[lead] - np.uint8(ord("0"))
        top = words[:, 0]
        fast = (buf[lead + 1] == ord(".")) & (d <= 9) & ((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0)
        fast &= (k - np.uint64(1) < 22) & (top <= 1843) & ((d == 0) | (k <= 18))  # M < 2**64
        m = top * np.uint64(10**16) + words[:, 1] * np.uint64(10**8) + words[:, 2]
        m += d * tens.take(k)

        b, b_high, b_low = pow10.take(np.minimum(k, 22), axis=1)
        q = m.astype(np.float64) / b
        p, err = _two_product(q, b, b_high, b_low)
        residual = (m & np.uint64(2**64 - 2048)).astype(np.float64) - p
        residual += (m & np.uint64(2047)).astype(np.float64)
        residual -= err
        bits = q.view(np.uint64)
        ulp = (bits & np.uint64(0x7FF << 52)).view(np.float64) * 2.0**-52
        t = residual / np.maximum(ulp * b, 2.0**-1074)  # q = 0 only for M = 0
        j = np.rint(t)
        fast &= np.abs(np.abs(t - j) - 0.5) >= 2.0**-30
        fast &= ((bits & np.uint64(2**52 - 1)) != 0) | (m == 0)
        x = q + j * ulp
        np.negative(x, out=x, where=negative)

        for i in np.flatnonzero(~fast).tolist():
            token = packed[first[i] - 24 : after[i] - 24]
            if not _JSON_NUMBER.fullmatch(token):
                return None
            try:
                value = float(token) if token.strip(b"-0123456789") else float(int(token))
            except (ValueError, OverflowError):  # beyond the digit limit or double range
                return None
            if not math.isfinite(value):
                return None
            x[i] = value
        blocks.append(x)
        done += n
        if cut == end:
            break
        start += len(block.rstrip(b" \t\n\r,[]"))
    return np.concatenate(blocks) if done == count else None
