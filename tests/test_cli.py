import contextlib
import dataclasses
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raysym import (
    BasisImages,
    OperatorFileError,
    ReconstructionResult,
    SymmetryOperator,
    induced_map,
    random_unitary,
    reconstruct,
)
from raysym import _text, cli, oracles
from raysym.cli import (
    MAX_TRIALS,
    UsageError,
    load_operator_file,
    main,
    parse_samples,
    render_reconstruction,
)

from conftest import matrix_pairs, write_operator_file

DIAG_121 = np.diag([1.0, 2.0, 1.0])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])

SRC = Path(__file__).resolve().parents[1] / "src"

#: Malformed dim-2 ``matrix`` fields, as JSON text, with the full error message.
#: When a field has several faults, the first in row-major order is named.
MALFORMED_MATRICES = [
    ("true", "[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) re: expected a number, got True"),
    ("null", "[[[1, 0], [0, null]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 2) im: expected a number, got None"),
    ("string", '[[[1, 0], [0, 0]], [["x", 0], [1, 0]]]',
     "matrix: entry (2, 1) re: expected a number, got 'x'"),
    ("nan", "[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]",
     "matrix: entry (2, 2) re: must be finite, got nan"),
    ("infinity", "[[[1, Infinity], [0, 0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) im: must be finite, got inf"),
    ("minus-infinity", "[[[1, 0], [0, 0]], [[0, -Infinity], [1, 0]]]",
     "matrix: entry (2, 1) im: must be finite, got -inf"),
    ("float-overflow", "[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) re: must be finite, got inf"),
    ("huge-integer", "[[[1" + "0" * 400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) re: out of double range, got an integer of 401 digits"),
    ("huge-negative-integer", "[[[1, 0], [0, -2" + "0" * 308 + "]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 2) im: out of double range, got an integer of 309 digits"),
    ("one-element-pair", "[[[1, 0], [0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 2) must be an [re, im] pair"),
    ("three-element-pair", "[[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]]",
     "matrix: entry (2, 2) must be an [re, im] pair"),
    ("compensating-pairs", "[[[1, 0, 0], [0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) must be an [re, im] pair"),
    ("bare-number", "[[[1, 0], [0, 0]], [0, [1, 0]]]",
     "matrix: entry (2, 1) must be an [re, im] pair"),
    ("nested-list", "[[[1, [0]], [0, 0]], [[0, 0], [1, 0]]]",
     "matrix: entry (1, 1) im: expected a number, got [0]"),
    ("short-row", "[[[1, 0], [0, 0]], [[0, 0]]]",
     "matrix: row 2 must have 2 entries"),
    ("non-list-row", '[{"re": 1, "im": 0}, [[0, 0], [1, 0]]]',
     "matrix: row 1 must have 2 entries"),
    ("too-few-rows", "[[[1, 0], [0, 0]]]",
     "matrix: expected 2 rows"),
    ("two-faults", "[[[1, 0], [NaN, true]], [[null, 0], [1, 0]]]",
     "matrix: entry (1, 2) re: must be finite, got nan"),
    ("fault-before-short-row", "[[[1, 0], [0, null]], [[0, 0]]]",
     "matrix: entry (1, 2) im: expected a number, got None"),
]

#: Valid JSON that Python's parser refuses: an integer past its digit limit,
#: and arrays nested past its recursion limit.
BEYOND_DIGIT_LIMIT = "[[[1" + "0" * 5000 + ", 0], [0, 0]], [[0, 0], [1, 0]]]"
BEYOND_NESTING_LIMIT = "[[[1, " + "[" * 100000 + "]" * 100000 + "], [0, 0]], [[0, 0], [1, 0]]]"


def write_matrix_text(path, matrix_text, dim=2, kind="general"):
    path.write_text(f'{{"dim": {dim}, "kind": "{kind}", "matrix": {matrix_text}}}')
    return str(path)


def reference_parse(rows, dim):
    """The per-entry parse the loader used before whole-array reads (``math.isfinite``
    raises OverflowError on integers beyond double range)."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise OperatorFileError(f"matrix: expected {dim} rows")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise OperatorFileError(f"matrix: row {i + 1} must have {dim} entries")
        entries = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise OperatorFileError(
                    f"matrix: entry ({i + 1}, {j + 1}) must be an [re, im] pair"
                )
            parts = []
            for value, part in zip(entry, ("re", "im")):
                field = f"matrix: entry ({i + 1}, {j + 1}) {part}"
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise OperatorFileError(f"{field}: expected a number, got {value!r}")
                if not math.isfinite(value):
                    raise OperatorFileError(f"{field}: must be finite, got {value!r}")
                parts.append(float(value))
            entries.append(complex(*parts))
        matrix.append(entries)
    return np.array(matrix, dtype=np.complex128)


def reference_fmt(x):
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def printed_parts(values):
    """The re and im fields of the matrix lines of ``values``, zero-padded to a square
    matrix of at least dim 2, in order; and the padded values themselves."""
    values = np.asarray(values, dtype=np.float64).ravel()
    dim = max(2, math.isqrt(-(-len(values) // 2) - 1) + 1)
    padded = np.zeros(2 * dim * dim)
    padded[: len(values)] = values
    text = "\n".join(_text.matrix_lines(padded.view(np.complex128).reshape(dim, dim)))
    return [field for line in text.split("\n") for field in line.split("\t")[3:]], padded.tolist()


#: One dimension whose whole matrix is one chunk of the matrix-line printer.
CHUNK_SIDE = math.isqrt(_text.BLOCK_PARTS // 2)

#: Parts that ``fmt`` prints in scientific notation.
FALLBACKS = [1e-5, -9.9999999999999991e-5, 5e-324, 1e17, -1.7976931348623157e308]


def with_fallbacks_at_chunk_ends(m):
    """``m`` with a part that ``fmt`` prints in scientific notation at the first and last
    part of each chunk of rows the matrix-line printer works in."""
    m = m.copy()
    dim = len(m)
    rows = max(1, _text.BLOCK_PARTS // (2 * dim))
    for k, top in enumerate(range(0, dim, rows)):
        last = min(top + rows, dim) - 1
        m[top, 0] = complex(FALLBACKS[k % 5], m[top, 0].imag)
        m[last, dim - 1] = complex(m[last, dim - 1].real, FALLBACKS[(k + 2) % 5])
    return m


def reference_render_tail(result):
    """The per-entry scale and matrix lines render_reconstruction printed before."""
    op = result.operator
    lines = [f"scale\t{i + 1}\t{reference_fmt(float(s))}" for i, s in enumerate(result.scales)]
    for i in range(op.dim):
        for j in range(op.dim):
            entry = op.matrix[i, j]
            lines.append(
                f"matrix\t{i + 1}\t{j + 1}\t{reference_fmt(entry.real)}\t{reference_fmt(entry.imag)}"
            )
    return lines


JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([2**53 + 1, 3**40, -(10**300), 10**308]),
)
JSON_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.floats(),
    st.sampled_from([10**309, -(10**400), 2**1024]),
    st.lists(JSON_NUMBERS, max_size=3),
    st.dictionaries(st.text(max_size=1), JSON_NUMBERS, max_size=2),
)


@st.composite
def matrix_fields(draw):
    """A dim and a ``matrix`` field: well formed, then with up to two leaves,
    entries or rows replaced by arbitrary JSON values."""
    dim = draw(st.integers(min_value=2, max_value=4))
    pair = st.lists(JSON_NUMBERS, min_size=2, max_size=2)
    row = st.lists(pair, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=dim, max_size=dim))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - 1))
        junk = draw(JSON_JUNK)
        where = draw(st.sampled_from(["leaf", "entry", "row"]))
        row_ok = isinstance(rows[i], list) and len(rows[i]) == dim
        if where == "leaf" and row_ok and isinstance(rows[i][j], list) and len(rows[i][j]) == 2:
            rows[i][j][draw(st.integers(min_value=0, max_value=1))] = junk
        elif where == "entry" and row_ok:
            rows[i][j] = junk
        else:
            rows[i] = junk
    return dim, rows


#: A valid dim-2 operator file, the seed of ``mutated_files``.
VALID_2X2 = json.dumps(
    {"dim": 2, "kind": "general", "matrix": [[[0.6, 0.0], [0.8, 0.0]], [[-0.8, 0.0], [0.6, 0.0]]]}
).encode()


@st.composite
def mutated_files(draw):
    """VALID_2X2 with one to four bytes replaced, deleted or inserted.

    New bytes are arbitrary or number characters, so some edits keep the
    file valid and the command runs the pipeline on the edited matrix.
    """
    data = bytearray(VALID_2X2)
    new_byte = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789-.e"))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        k = draw(st.integers(min_value=0, max_value=len(data) - 1))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "delete":
            del data[k]
        else:
            data[k:k + (edit == "replace")] = bytes([draw(new_byte)])
    return bytes(data)


@pytest.fixture
def identity_file(tmp_path):
    return write_operator_file(tmp_path / "identity.json", np.eye(2), "unitary")


@pytest.fixture
def anti_identity_file(tmp_path):
    return write_operator_file(tmp_path / "anti.json", np.eye(2), "antiunitary")


@pytest.fixture
def diag_file(tmp_path):
    return write_operator_file(tmp_path / "diag.json", DIAG_121, "general")


@pytest.fixture(params=["json", "array"], scope="class")
def both_reads(request):
    """Each read that ``load_operator_file`` may take: JSON alone, or the array read first.

    The tests that use it have small files, far below the crossover, so
    without the "array" run none would reach ``matrix_parts``.  That run sets
    the crossover to 0; each file must then load to the same bits, or fail
    with the same message.  Class scope, so that hypothesis tests can use it.
    """
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "array":
            patch.setattr(cli, "_ARRAY_READ_MIN", 0)
        yield request.param


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    rows = [line.split("\t")[1:] for line in out.splitlines() if line.startswith(key + "\t")]
    assert rows, f"no {key!r} lines in output"
    return rows


class TestLoadOperatorFile:
    def test_round_trips_a_unitary(self, tmp_path):
        u = random_unitary(3, seed=5)
        op = load_operator_file(write_operator_file(tmp_path / "u.json", u, "unitary"))
        assert np.allclose(op.matrix, u, atol=1e-15)
        assert not op.antiunitary

    @pytest.mark.parametrize("kind, products", [("unitary", 0), ("antiunitary", 0), ("general", 1)])
    def test_a_unitary_file_forms_its_gram_product_once(self, monkeypatch, tmp_path, kind,
                                                         products):
        # Loading checks the defect of a unitary or antiunitary file, and that
        # certifies its condition number too; a general file's is certified apart.
        calls = []
        certifies = oracles._gram_certifies
        monkeypatch.setattr(oracles, "_gram_certifies", lambda m: calls.append(m) or certifies(m))
        u = random_unitary(4, seed=2)
        induced_map(load_operator_file(write_operator_file(tmp_path / "u.json", u, kind)))
        assert len(calls) == products

    def test_antiunitary_kind_sets_the_flag(self, anti_identity_file):
        assert load_operator_file(anti_identity_file).antiunitary

    def test_general_conjugate_first(self, tmp_path):
        path = write_operator_file(tmp_path / "g.json", np.eye(2), "general", conjugate_first=True)
        assert load_operator_file(path).antiunitary

    @pytest.mark.usefixtures("both_reads")
    @pytest.mark.parametrize(
        "mutate, named_field",
        [
            (lambda d: d.update(dim=1), "dim"),
            (lambda d: d.update(dim="2"), "dim"),
            (lambda d: d.update(kind="hermitian"), "kind"),
            (lambda d: d.pop("matrix"), "matrix"),
            (lambda d: d.update(matrix=d["matrix"][:1]), "matrix"),
            (lambda d: d["matrix"][0].__setitem__(0, [1.0]), "matrix"),
            (lambda d: d["matrix"][0].__setitem__(0, [1.0, "x"]), "matrix"),
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d.update(conjugate_first=True), "conjugate_first"),
        ],
    )
    def test_malformed_files_name_the_field(self, tmp_path, mutate, named_field):
        data = {
            "dim": 2,
            "kind": "unitary",
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        from raysym import OperatorFileError

        with pytest.raises(OperatorFileError) as info:
            load_operator_file(str(path))
        assert named_field in str(info.value)

    @pytest.mark.usefixtures("both_reads")
    @pytest.mark.parametrize(
        "matrix_text, message", [case[1:] for case in MALFORMED_MATRICES],
        ids=[case[0] for case in MALFORMED_MATRICES],
    )
    def test_malformed_matrix_messages(self, tmp_path, matrix_text, message):
        path = write_matrix_text(tmp_path / "bad.json", matrix_text)
        with pytest.raises(OperatorFileError) as info:
            load_operator_file(path)
        assert str(info.value) == message

    @pytest.mark.usefixtures("both_reads")
    @pytest.mark.parametrize(
        "matrix_text", [BEYOND_DIGIT_LIMIT, BEYOND_NESTING_LIMIT], ids=["digits", "nesting"]
    )
    def test_json_beyond_the_parser_limits_is_rejected(self, tmp_path, matrix_text):
        path = write_matrix_text(tmp_path / "bad.json", matrix_text)
        with pytest.raises(OperatorFileError, match="^input: cannot read JSON: "):
            load_operator_file(path)

    @pytest.mark.usefixtures("both_reads")
    @given(field=matrix_fields())
    def test_matches_the_per_entry_parse(self, tmp_path_factory, field):
        dim, rows = field
        path = tmp_path_factory.mktemp("prop") / "m.json"
        path.write_text(json.dumps({"dim": dim, "kind": "general", "matrix": rows}))
        rows = json.loads(path.read_text())["matrix"]
        try:
            want = reference_parse(rows, dim)
        except OperatorFileError as err:
            with pytest.raises(OperatorFileError) as info:
                load_operator_file(str(path))
            assert str(info.value) == str(err)
        except OverflowError:
            with pytest.raises(OperatorFileError, match="out of double range"):
                load_operator_file(str(path))
        else:
            got = load_operator_file(str(path)).matrix
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.usefixtures("both_reads")
    def test_keeps_every_bit_of_special_values(self, tmp_path):
        text = "[[[-0.0, 5e-324], [1e300, -1e-310]], [[2, -0.0], [9007199254740993, 0]]]"
        op = load_operator_file(write_matrix_text(tmp_path / "m.json", text))
        want = reference_parse(json.loads(text), 2)
        assert op.matrix.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        assert math.copysign(1.0, op.matrix[0, 0].real) == -1.0

    def test_non_unitary_matrix_declared_unitary_is_rejected(self, tmp_path):
        from raysym import OperatorFileError

        path = write_operator_file(tmp_path / "bad.json", DIAG_121, "unitary")
        with pytest.raises(OperatorFileError, match="unitary"):
            load_operator_file(path)

    def test_invalid_json_is_rejected(self, tmp_path):
        from raysym import OperatorFileError

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(OperatorFileError, match="JSON"):
            load_operator_file(str(path))


class TestOperatorFileBytes:
    """Whatever bytes an operator file holds, a command exits with a code and at most one error line."""

    @pytest.mark.parametrize("command", ["reconstruct", "conformance", "probe"])
    def test_non_utf8_file_exits_64_with_one_error_line(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + VALID_2X2.decode().encode("utf-16-le"))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (64, "")
        assert err.startswith(f"error: input: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    # Each example overwrites the one file and reads its own output, so sharing the fixtures is safe.
    @pytest.mark.usefixtures("both_reads")
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(st.binary(max_size=64), mutated_files()))
    def test_fuzzed_file_exits_with_a_code_and_at_most_one_error_line(self, capsys, tmp_path, data):
        path = tmp_path / "op.json"
        path.write_bytes(data)
        for command, *flags in (["reconstruct"], ["conformance", "--trials", "3"], ["probe"]):
            code, _, err = run_cli(capsys, command, str(path), *flags)
            assert code in (0, 1, 2, 64), (command, data)
            assert err.count("error: ") <= 1, (command, data)
            assert err.count("\n") <= 1, (command, data)


def json_parts(span, dim):
    """The parts of a ``matrix`` field's text as ``json.loads`` and ``_parse_matrix`` read
    them, as float64, or None where either raises."""
    try:
        return cli._parse_matrix(json.loads(span), dim).view(np.float64).ravel()
    except (OperatorFileError, ValueError, RecursionError):
        return None


def assert_reads_as_json(span, dim):
    """``matrix_parts`` of ``span`` gives the JSON read's bits or None, never other bits,
    and None wherever the JSON read raises; returns what it gave."""
    got = _text.matrix_parts(span, dim)
    if got is not None:
        want = json_parts(span, dim)
        assert want is not None, span
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), span
    return got


def matrix_span(tokens, dim, style="compact"):
    """A ``matrix`` field of ``dim`` rows of ``dim`` [re, im] pairs of the given texts,
    row by row, with the separators and whitespace of ``style``."""
    pairs = [f"[{tokens[k]},{tokens[k + 1]}]" for k in range(0, 2 * dim * dim, 2)]
    rows = ("[" + ",".join(pairs[i * dim:(i + 1) * dim]) + "]" for i in range(dim))
    text = "[" + ",".join(rows) + "]"
    return SPAN_STYLES[style](text)


SPAN_STYLES = {
    "compact": lambda text: text,
    "dumps": lambda text: text.replace(",", ", "),
    "indent": lambda text: re.sub(r"([\[,])", r"\1\n  ", text).replace("]", "\n]"),
    "crlf": lambda text: re.sub(r"([\[,])", "\\1\r\n\t", text).replace("]", " \r\n]"),
}

#: Texts of one part: floats as ``json.dumps`` writes them, integers, decimals
#: of up to 24 fraction digits, and junk made of number characters.
PART_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-(2**66), max_value=2**66).map(str),
    st.builds(
        "{}{}.{}".format, st.sampled_from(["", "-"]), st.integers(0, 9),
        st.text("0123456789", min_size=1, max_size=24),
    ),
    st.text("0123456789-+.eE", min_size=1, max_size=5),
)


@st.composite
def edited_spans(draw):
    """A dim, and a ``matrix`` field of floats for that dim or a neighbouring one, with up to
    three characters replaced, deleted or inserted."""
    dim = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.lists(st.floats(-2, 2), min_size=2 * dim * dim, max_size=2 * dim * dim))
    style = draw(st.sampled_from(sorted(SPAN_STYLES)))
    text = list(matrix_span([repr(v) for v in values], dim, style))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(text) - 1))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "delete":
            del text[k]
        else:
            text[k:k + (edit == "replace")] = [draw(st.sampled_from("[],.-+0159eE \n\x0bx"))]
    return draw(st.sampled_from([dim, dim + 1, max(1, dim - 1)])), "".join(text)


def near_halfway(values):
    """For each double x in (0, 10), the decimals nearest the midpoint of x and the next
    double up, and one unit of the last digit either side: 18 fraction digits from 1 up,
    19 significant digits below (at most 22 fraction digits), as the array pass takes them."""
    texts = []
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        for x in values:
            unit = decimal.Decimal(10) ** -min(22, 18 - min(0, math.floor(math.log10(x))))
            mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2
            near = mid.quantize(unit)
            texts += [f"{near + k * unit:f}" for k in (-1, 0, 1)]
    return texts


def nearest_midpoints(binades):
    """Decimals F / 10**22 within 2.1e-16 ulp of a midpoint between two doubles, either
    side, as close as a part of at most 22 fraction digits comes to one.

    For x in [2**-b, 2**(1 - b)), b <= 22, the midpoint is c * 2**-(b + 53) with
    c * 5**22 = F * 2**(b + 31) +- 1 and c odd in [2**53, 2**54).
    """
    texts = []
    for b in binades:
        modulus = 2 ** (b + 31)
        for side in (1, -1):
            c = side * pow(5**22, -1, modulus) % modulus
            c += (2**53 - c + modulus - 1) // modulus * modulus  # odd, in [2**53, 2**54)
            texts.append("0." + str((c * 5**22 - side) // modulus).zfill(22))
    return texts


_RNG = np.random.default_rng(2024)

#: Families of valid parts where a reader comes closest to wrong.
PART_FAMILIES = {
    "edges": [
        "-0", "-0.0", "0", "0.0", "9007199254740993", "-9007199254740993", "5e-324",
        "1e22", "1e23", "-1E+22", "1.7976931348623157e308", "2.2250738585072014e-308",
        # Fractions whose digits, as an integer, lie at 2**64 or just below it.
        "0.18446744073709551615", "0.18446744073709551616", "0.18439999999999999999",
        "0.0018446744073709551615", "9.999999999999999999",
    ],
    "powers-of-two": [
        repr(float(np.nextafter(2.0**e, to))) for e in range(-75, 4) for to in (0.0, 2.0**e, np.inf)
    ],
    "powers-of-ten": [
        repr(float(np.nextafter(10.0**e, to))) for e in range(-22, 1) for to in (0.0, 10.0**e, np.inf)
    ],
    "long-fractions": [
        f"{d}." + "".join(map(str, _RNG.integers(0, 10, k)))
        for k in range(17, 24) for d in (0, 1, 9) for _ in range(6)
    ] + ["0." + "0" * (k - 1) + "1" for k in range(17, 24)] + ["9." + "9" * k for k in range(17, 24)],
    "near-halfway": near_halfway(
        np.concatenate([_RNG.uniform(1, 10, 40), 10.0 ** _RNG.uniform(-6, 0, 60), [0.1, 1.0, 0.3]])
    ),
    "nearest-midpoints": nearest_midpoints(range(10, 23)),
    "exponents": [
        "1.5e-5", "1E5", "-2.5E-10", "1e0", "0e0", "-0e-0", "12.5e1", "7E-300", "-3.25e+2", "1e-7",
    ],
}

#: An operator file's text, by form; every form is above the array-read crossover.
FILE_FORMS = {
    "dumps": json.dumps,
    "indent": lambda data: json.dumps(data, indent=2),
    "compact": lambda data: json.dumps(data, separators=(",", ":")),
    "crlf": lambda data: json.dumps(data, indent=2).replace("\n", "\r\n"),
    "matrix-first": lambda data: json.dumps(dict(reversed(list(data.items())))),
    "escaped-key": lambda data: json.dumps(data).replace('"matrix"', '"m\\u0061trix"'),
    "duplicate-key": lambda data: json.dumps(data)[:-1] + ', "matrix": 7}',
    "duplicate-key-first": lambda data: json.dumps(data).replace('"matrix": ', '"matrix": 0, "matrix": '),
    "nested-key": lambda data: json.dumps({**data, "extra": {"matrix": data["matrix"]}}),
    "string-value": lambda data: json.dumps({**data, "kind": "matrix"}),
    "bom": lambda data: "\ufeff" + json.dumps(data),
    "number-after-field": lambda data: json.dumps(data)[:-1] + ".5}",
    "exponent-after-field": lambda data: json.dumps(data)[:-1] + "e0}",
    "no-closing-brace": lambda data: json.dumps(data)[:-1],
}

#: The forms that the array read takes; it leaves the others to the JSON read.
ARRAY_FORMS = ["dumps", "indent", "compact", "crlf", "matrix-first"]


def loaded(path):
    """What ``load_operator_file`` gives: the matrix bits and flag, or the error message."""
    try:
        op = load_operator_file(str(path))
    except OperatorFileError as err:
        return str(err)
    return op.matrix.view(np.uint64).tobytes(), op.antiunitary


class TestMatrixParts:
    """``matrix_parts`` gives the bits of ``json.loads`` + ``_parse_matrix``, or None."""

    @settings(deadline=None)
    @given(dim=st.integers(min_value=1, max_value=3), style=st.sampled_from(sorted(SPAN_STYLES)),
           data=st.data())
    def test_any_field(self, dim, style, data):
        tokens = data.draw(st.lists(PART_TEXTS, min_size=2 * dim * dim, max_size=2 * dim * dim))
        assert_reads_as_json(matrix_span(tokens, dim, style), dim)

    @settings(deadline=None)
    @given(case=edited_spans())
    def test_any_edited_field(self, case):
        dim, span = case
        assert_reads_as_json(span, dim)

    @pytest.mark.parametrize("family", sorted(PART_FAMILIES))
    @pytest.mark.parametrize("style", ["compact", "dumps"])
    def test_families(self, family, style):
        texts = PART_FAMILIES[family]
        texts = texts + [t[1:] if t.startswith("-") else "-" + t for t in texts]
        dim = math.isqrt(-(-len(texts) // 2) - 1) + 1
        texts += ["0.5"] * (2 * dim * dim - len(texts))
        assert assert_reads_as_json(matrix_span(texts, dim, style), dim) is not None

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_json_dumps_floats_take_the_array_pass(self, monkeypatch, scale):
        # With the one-at-a-time read left only exponent forms, the field still
        # reads: every other part of a unitary, as json.dumps writes it, takes the array pass.
        monkeypatch.setattr(_text, "_JSON_NUMBER", re.compile(rb"-?[0-9.]+e-[0-9]+"))
        rows = matrix_pairs(random_unitary(24, seed=9) * scale)
        assert assert_reads_as_json(json.dumps(rows), 24) is not None

    def test_near_halfway_parts_take_the_array_pass(self, monkeypatch):
        monkeypatch.setattr(_text, "_JSON_NUMBER", re.compile(rb"(?!)"))
        texts = PART_FAMILIES["near-halfway"]
        dim = math.isqrt(len(texts) // 2)
        assert assert_reads_as_json(matrix_span(texts, dim, "dumps"), dim) is not None

    @pytest.mark.parametrize(
        "span",
        [
            "[[[1 2,3]]]", "[[[1,2\n5]]]", "[[[1,2\t.5]]]", "[[[1,2]]]]", "[[[1,2]]", "[[[1,2]],]",
            "[[[1,2],]]", "[[1,2]]", "[[[1,2,3]]]", "[[[1],[2]]]", "[[[1,2]]]\n[", "[[[1,2]]] ]",
            "[[[+1,2]]]", "[[[01,2]]]", "[[[1.,2]]]", "[[[.5,2]]]", "[[[NaN,2]]]", "[[[1e400,2]]]",
            "[[[0x1,2]]]", "[[[1,2]]]\x00", "[[[1,\u0662]]]", '[[["1",2]]]', "[[[1,2\x0b]]]",
        ],
    )
    def test_refuses_what_json_refuses(self, span):
        assert json_parts(span, 1) is None
        assert _text.matrix_parts(span, 1) is None

    @pytest.mark.parametrize("block", range(12, 41))
    def test_blocks_cut_at_every_comma(self, monkeypatch, block):
        monkeypatch.setattr(_text, "BLOCK_BYTES", block)
        tokens = ["0.5", "-1", "0.25", "-0.0", "1.5", "2e3", "-7.5", "0", "3"] * 6
        for style in ("compact", "dumps"):
            assert assert_reads_as_json(matrix_span(tokens[:18], 3, style), 3) is not None

    @pytest.mark.parametrize("form", sorted(FILE_FORMS))
    def test_file_forms(self, monkeypatch, tmp_path, form):
        data = {"dim": 24, "kind": "unitary", "matrix": matrix_pairs(random_unitary(24, seed=4))}
        path = tmp_path / "op.json"
        path.write_bytes(FILE_FORMS[form](data).encode())
        assert path.stat().st_size >= cli._ARRAY_READ_MIN
        arrays = cli._array_read(path.read_text(encoding="utf-8"))
        assert (arrays is not None) == (form in ARRAY_FORMS)
        array_first = loaded(path)
        monkeypatch.setattr(cli, "_ARRAY_READ_MIN", math.inf)
        assert array_first == loaded(path)

    def test_a_huge_dim_is_refused_in_little_memory(self, tmp_path):
        rows = matrix_pairs(random_unitary(32, seed=1))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 10**9, "kind": "unitary", "matrix": rows}))
        assert path.stat().st_size >= cli._ARRAY_READ_MIN
        assert _text.matrix_parts(json.dumps(rows), 10**9) is None
        tracemalloc.start()
        try:
            with pytest.raises(OperatorFileError) as info:
                load_operator_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "matrix: expected 1000000000 rows"
        assert peak < 4 * 2**20


class TestParseSamples:
    def test_accepts_i_notation(self):
        assert parse_samples("1,i") == (1.0 + 0.0j, 1.0j)
        assert parse_samples("1+i, -i, 0.5-0.25i") == (1.0 + 1.0j, -1.0j, 0.5 - 0.25j)

    def test_accepts_j_notation(self):
        assert parse_samples("2j,1-1j") == (2.0j, 1.0 - 1.0j)

    @pytest.mark.parametrize("bad", ["", "1,,2", "xyz", "nan"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(UsageError):
            parse_samples(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1e160,1e160", "1e160 * 1e160"),          # a self-pair, listed twice
            ("1e200", "1e200 * 1e200"),                # a sample with itself
            ("1e-5,1e308", "1e308 + 1e308"),
            ("1e100,1e250", "1e100 * 1e250"),          # only the cross pair overflows
            ("-1e308i,1", "-1e308i + -1e308i"),
            ("1e300+1e300i", "1e300+1e300i * 1e300+1e300i"),  # real part inf - inf = nan
        ],
    )
    def test_rejects_a_non_finite_pairwise_sum_or_product(self, text, message):
        with pytest.raises(UsageError) as info:
            parse_samples(text)
        assert str(info.value) == f"--samples: {message} is not finite"

    def test_accepts_extreme_samples_whose_pairs_stay_finite(self):
        assert parse_samples("1e154,-1e154i,1e-300") == (1e154, -1e154j, 1e-300)


class TestReconstructCommand:
    def test_identity(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "reconstruct", identity_file)
        assert code == 0
        assert grab(out, "kind") == [["identity-automorphism"]]
        assert grab(out, "antiunitary") == [["false"]]
        assert grab(out, "status") == [["unitary-valid"]]

    def test_antiunitary_identity(self, capsys, anti_identity_file):
        code, out, _ = run_cli(capsys, "reconstruct", anti_identity_file)
        assert code == 0
        assert grab(out, "kind") == [["conjugation-automorphism"]]
        assert grab(out, "antiunitary") == [["true"]]

    def test_diagonal_general_is_diagnostic_only(self, capsys, diag_file):
        code, out, _ = run_cli(capsys, "reconstruct", diag_file)
        assert code == 2
        assert grab(out, "status") == [["diagnostic-only"]]
        scales = [float(row[1]) for row in grab(out, "scale")]
        assert scales == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)

    def test_matrix_entries_round_trip_exactly(self, capsys, tmp_path):
        u = random_unitary(3, seed=8)
        path = write_operator_file(tmp_path / "u.json", u, "unitary")
        code, out, _ = run_cli(capsys, "reconstruct", path)
        assert code == 0
        expected = reconstruct(induced_map(SymmetryOperator(u)), 3).operator.matrix
        parsed = np.zeros((3, 3), dtype=complex)
        for i, j, re, im in grab(out, "matrix"):
            parsed[int(i) - 1, int(j) - 1] = complex(float(re), float(im))
        assert np.array_equal(parsed, expected)

    def test_render_matches_the_per_entry_loop(self):
        m = np.empty((3, 3), dtype=np.complex128)
        m.real = [[-0.0, 5e-324, 1e300], [2.0, -0.0, 1.0], [0.1, -7.0, 123456789.0]]
        m.imag = [[0.0, -0.0, 3.0], [-1e300, -0.0, 1e-310], [0.2, 0.0, -0.0]]
        assert np.signbit(m[1, 1].real) and np.signbit(m[1, 1].imag)
        result = ReconstructionResult(
            operator=SymmetryOperator(m),
            basis=BasisImages(columns=m, gram_defect=0.0, scales=np.array([1.0, 0.25, 5e-324])),
            classification_residual=-0.0,
            unitary_valid=False,
        )
        # The matrix lines render as one newline-joined string per chunk of rows, so compare text.
        text = "\n".join(render_reconstruction(result)[7:])
        assert text == "\n".join(reference_render_tail(result))
        assert "matrix\t1\t1\t0\t0" in text.split("\n")

    @pytest.mark.parametrize(
        "dim, sprinkle",
        [(12, False), (64, False), (129, True), (256, True),
         (CHUNK_SIDE - 1, True), (CHUNK_SIDE, True), (CHUNK_SIDE + 1, True)],
    )
    def test_render_matches_the_per_entry_loop_on_a_reconstruction(self, dim, sprinkle):
        # CHUNK_SIDE rows make one whole chunk; one row more makes two.
        assert _text.BLOCK_PARTS // (2 * CHUNK_SIDE) == CHUNK_SIDE
        u = random_unitary(dim, seed=4) * (1.0 + np.arange(dim) / dim)
        result = reconstruct(induced_map(SymmetryOperator(u)), dim)
        if sprinkle:
            # Signed zeros, the smallest subnormal and huge entries, at row ends and inside.
            m = with_fallbacks_at_chunk_ends(result.operator.matrix)
            for k, value in enumerate([-0.0, 5e-324, -5e-324, 1e300, -1e300]):
                for i, j in ((k, 1), (k + 1, dim - 2), (dim - 1 - k, 3 * k + 1)):
                    m[i, j] = complex(value, -value)
            m[dim - 1, dim - 2] = complex(-0.0, -0.0)
            assert np.signbit(m[0, 1].real) and np.signbit(m[dim - 1, dim - 2].imag)
            result = dataclasses.replace(result, operator=SymmetryOperator(m))
        text = "\n".join(render_reconstruction(result)[7:])
        assert text == "\n".join(reference_render_tail(result))


class TestMatrixLineDigits:
    """Each printed part is ``fmt``'s text, also where the array passes come closest to wrong."""

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_part(self, values):
        printed, parts = printed_parts(values)
        assert printed == [reference_fmt(x) for x in parts]

    @pytest.mark.parametrize(
        "values",
        [
            # Halfway cases of the 17th digit: M / 2**18 in [0.1, 1) with M odd, and more.
            np.arange(1, 2**18, 31) / 2.0**18,
            # A power of ten and its neighbours, where log10 can be one off.
            [np.nextafter(10.0**k, to) for k in range(-6, 18) for to in (-np.inf, 0.0, np.inf)],
            [2.0**53 - 2, 2.0**53 + 2, 2.0**53, 1e16, 0.0, -0.0, 5e-324, 1.7976931348623157e308],
        ],
        ids=["dyadic-ties", "powers-of-ten", "edges"],
    )
    def test_families(self, values):
        values = np.concatenate([values, np.negative(values)])
        printed, parts = printed_parts(values)
        assert printed == [reference_fmt(x) for x in parts]

    def test_out_of_range_integer_exits_64(self, capsys, tmp_path):
        text = next(case[1] for case in MALFORMED_MATRICES if case[0] == "huge-integer")
        path = write_matrix_text(tmp_path / "big.json", text)
        code, out, err = run_cli(capsys, "reconstruct", path)
        assert (code, out) == (64, "")
        assert err == "error: matrix: entry (1, 1) re: out of double range, got an integer of 401 digits\n"

    @pytest.mark.parametrize("scale, defect", [(1e150, "1.000e+300"), (1e160, "inf")])
    def test_unitary_kind_beyond_double_range_exits_64(self, capsys, tmp_path, scale, defect):
        # Past 1e154 the Gram product overflows: the defect reads inf, never a NaN that passes.
        path = write_operator_file(tmp_path / "u.json", scale * random_unitary(4, seed=3), "unitary")
        code, out, err = run_cli(capsys, "reconstruct", path)
        assert (code, out) == (64, "")
        assert err == (
            'error: matrix: kind "unitary" requires a unitary matrix '
            f"(defect {defect} exceeds 1e-08)\n"
        )

    def test_pipeline_error_exits_1_and_names_the_stage(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "shear.json", SHEAR, "general")
        code, out, err = run_cli(capsys, "reconstruct", path)
        assert code == 1
        assert out == ""
        assert "map_basis" in err

    def test_missing_file_exits_64(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "reconstruct", str(tmp_path / "absent.json"))
        assert code == 64
        assert "error" in err

    def test_dimension_one_file_exits_64(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "kind": "unitary", "matrix": [[[1.0, 0.0]]]}))
        code, _, err = run_cli(capsys, "reconstruct", str(path))
        assert code == 64
        assert "dimension must be at least 2" in err

    def test_out_of_range_tolerance_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "reconstruct", identity_file, "--tol-recon", "0.5")
        assert code == 64
        assert "recon_tol" in err


class TestConformanceCommand:
    def test_random_unitary_passes(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "u.json", random_unitary(4, seed=7), "unitary")
        code, out, _ = run_cli(capsys, "conformance", path, "--seed", "7")
        assert code == 0
        assert grab(out, "overall") == [["pass"]]
        checks = grab(out, "check")
        assert len(checks) == 7
        assert all(row[1] == "pass" for row in checks)

    def test_round_trip_beyond_double_range_fails_with_inf(self, capsys, tmp_path):
        hadamard = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
        path = write_operator_file(tmp_path / "h.json", 1e308 * hadamard, "general")
        code, out, err = run_cli(capsys, "conformance", path)
        assert (code, err) == (1, "")
        assert grab(out, "check")[5] == ["round-trip", "fail", "inf", "0", "0"]

    def test_round_trip_below_double_range_fails(self, capsys, tmp_path):
        # candidate^dagger reference underflows to zero, which is no unit-phase match.
        hadamard = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
        path = write_operator_file(tmp_path / "h.json", 5e-324 * hadamard, "general")
        code, out, err = run_cli(capsys, "conformance", path)
        assert (code, err) == (1, "")
        assert grab(out, "check")[5] == ["round-trip", "fail", "1", "0", "0"]
        assert grab(out, "overall") == [["fail"]]

    def test_diag_general_fails(self, capsys, diag_file):
        code, out, _ = run_cli(capsys, "conformance", diag_file)
        assert code == 1
        assert grab(out, "overall") == [["fail"]]
        failing = {row[0] for row in grab(out, "check") if row[1] == "fail"}
        assert "orthogonality-preservation" in failing
        assert "ray-function-invariance" in failing

    def test_perturbed_unitary_fails_with_named_checks(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        noise = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        a = random_unitary(3, seed=9) + 0.05 * noise
        path = write_operator_file(tmp_path / "p.json", a, "general")
        code, out, _ = run_cli(capsys, "conformance", path)
        assert code == 1
        failing = {row[0] for row in grab(out, "check") if row[1] == "fail"}
        assert "orthogonality-preservation" in failing or "ray-function-invariance" in failing

    def test_tol_recon_bounds_the_basis_gram_defect(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "s.json", np.eye(3) + 1e-6 * np.eye(3, k=1), "general")
        statuses = []
        for flags in ([], ["--tol-recon", "1e-4"]):
            code, out, _ = run_cli(capsys, "conformance", path, "--trials", "20", *flags)
            assert code == 1
            entry = next(row for row in grab(out, "check") if row[0] == "basis-completeness")
            statuses.append(entry[1])
        assert statuses == ["fail", "pass"]

    def test_trials_flag_is_recorded(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "conformance", identity_file, "--trials", "25")
        assert code == 0
        orth = next(row for row in grab(out, "check") if row[0] == "orthogonality-preservation")
        assert orth[3] == "25"

    def test_bad_trials_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "conformance", identity_file, "--trials", "0")
        assert code == 64
        assert "--trials" in err

    def test_absurd_trials_exit_64_at_once(self, capsys, identity_file):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "conformance", identity_file, "--trials", "9" * 23)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (64, "")
        assert err == "error: --trials: must be at most 1000000\n"

    def test_trials_bound_is_inclusive(self, capsys, identity_file, monkeypatch):
        assert MAX_TRIALS == 1_000_000
        asked, run = [], cli.run_full_conformance

        def one_trial(op, **kw):  # records the trials asked for, then runs one
            asked.append(kw.pop("invariance_trials"))
            return run(op, invariance_trials=1, **kw)

        monkeypatch.setattr(cli, "run_full_conformance", one_trial)
        code, _, _ = run_cli(capsys, "conformance", identity_file, "--trials", str(MAX_TRIALS))
        assert (code, asked) == (0, [MAX_TRIALS])
        code, _, err = run_cli(capsys, "conformance", identity_file, "--trials", str(MAX_TRIALS + 1))
        assert (code, asked) == (64, [MAX_TRIALS])
        assert err == f"error: --trials: must be at most {MAX_TRIALS}\n"

    def test_negative_seed_exits_64(self, capsys, identity_file):
        code, out, err = run_cli(capsys, "conformance", identity_file, "--seed", "-1")
        assert (code, out) == (64, "")
        assert err == "error: --seed: must be at least 0\n"

    def test_seed_zero_is_accepted(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "conformance", identity_file, "--seed", "0")
        assert code == 0
        assert grab(out, "seed") == [["0"]]


class TestProbeCommand:
    def test_conjugation_rows(self, capsys, anti_identity_file):
        code, out, _ = run_cli(capsys, "probe", anti_identity_file, "--samples", "1,i")
        assert code == 0
        rows = [tuple(map(float, row)) for row in grab(out, "probe")]
        assert rows[0] == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=1e-12)
        assert rows[1] == pytest.approx((0.0, 1.0, 0.0, -1.0), abs=1e-12)

    def test_identity_default_grid(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "probe", identity_file)
        assert code == 0
        rows = [tuple(map(float, row)) for row in grab(out, "probe")]
        assert len(rows) == 12
        for z_re, z_im, f_re, f_im in rows:
            assert (f_re, f_im) == pytest.approx((z_re, z_im), abs=1e-12)
        assert float(grab(out, "additivity-residual")[0][0]) <= 1e-12
        assert float(grab(out, "multiplicativity-residual")[0][0]) <= 1e-12

    def test_haar_unitary_probes_to_identity(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "u.json", random_unitary(5, seed=13), "unitary")
        code, out, _ = run_cli(capsys, "probe", path, "--index", "4")
        assert code == 0
        for z_re, z_im, f_re, f_im in (tuple(map(float, row)) for row in grab(out, "probe")):
            assert (f_re, f_im) == pytest.approx((z_re, z_im), abs=1e-10)

    def test_rays_asked_at_dimension_4(self, capsys, tmp_path, image_calls):
        path = write_operator_file(tmp_path / "u.json", random_unitary(4, seed=5), "unitary")
        code, _, _ = run_cli(capsys, "probe", path)
        assert code == 0
        # 4 axis rays, 3 unit probes, the 121 distinct probe rays of the default grid's 168 points
        assert image_calls[0] == 4 + 3 + 121 == 128

    def test_index_below_two_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--index", "1")
        assert code == 64
        assert "--index" in err

    def test_index_above_dimension_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--index", "3")
        assert code == 64
        assert "--index" in err

    @pytest.mark.parametrize("samples", ["", " "])
    def test_empty_samples_exit_64(self, capsys, identity_file, samples):
        code, out, err = run_cli(capsys, "probe", identity_file, "--samples", samples)
        assert (code, out, err) == (64, "", "error: --samples: empty entry\n")

    def test_bad_samples_exit_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--samples", "1,bogus")
        assert code == 64
        assert "--samples" in err

    def test_overflowing_probe_point_exits_64(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "id3.json", np.eye(3), "unitary")
        code, out, err = run_cli(
            capsys, "probe", path, "--samples", "1e160,1e160", "--tol-orth", "1e-300"
        )
        assert (code, out) == (64, "")
        assert err == "error: --samples: 1e160 * 1e160 is not finite\n"


class TestUsage:
    def test_unknown_subcommand_exits_64(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "error" in err

    def test_missing_input_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "reconstruct")
        assert code == 64


class TestByteStability:
    @pytest.mark.parametrize("command", ["reconstruct", "conformance"])
    @pytest.mark.parametrize("fixture", ["identity", "anti", "diag"])
    def test_two_runs_are_byte_identical(self, capsys, tmp_path, command, fixture):
        if fixture == "identity":
            path = write_operator_file(tmp_path / "f.json", np.eye(2), "unitary")
        elif fixture == "anti":
            path = write_operator_file(tmp_path / "f.json", np.eye(2), "antiunitary")
        else:
            path = write_operator_file(tmp_path / "f.json", DIAG_121, "general")
        code_a, out_a, _ = run_cli(capsys, command, path)
        code_b, out_b, _ = run_cli(capsys, command, path)
        assert code_a == code_b
        assert out_a.encode() == out_b.encode()


class TestMalformedFilesInASubprocess:
    """``python -m raysym`` on malformed files and flags: exit 64 and one error line, never a traceback."""

    def test_every_malformed_file_exits_64_with_one_error_line(self, tmp_path):
        texts = [case[:2] for case in MALFORMED_MATRICES] + [
            ("beyond-digit-limit", BEYOND_DIGIT_LIMIT),
            ("beyond-nesting-limit", BEYOND_NESTING_LIMIT),
        ]
        cases = [
            (name, ["reconstruct", write_matrix_text(tmp_path / f"{name}.json", text)])
            for name, text in texts
        ]
        for name, key in (("newline-key", "a\nb"), ("tab-key", "\t")):
            data = {"dim": 2, "kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], key: 1}
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
            cases.append((name, ["reconstruct", str(tmp_path / f"{name}.json")]))
        identity = write_operator_file(tmp_path / "identity.json", np.eye(2), "unitary")
        cases.append(("negative-seed", ["conformance", identity, "--seed", "-1"]))
        cases.append(("absurd-trials", ["conformance", identity, "--trials", "9" * 23]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def run(case):
            name, argv = case
            proc = subprocess.run(
                [sys.executable, "-m", "raysym", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            lines = proc.stderr.splitlines()
            ok = proc.returncode == 64 and proc.stdout == "" and len(lines) == 1
            return None if ok and lines[0].startswith("error: ") else (name, proc.returncode, proc.stderr[-300:])

        # Interpreter start-up dominates each run, so a few run at once.
        with ThreadPoolExecutor(max_workers=4) as pool:
            failures = [f for f in pool.map(run, cases) if f is not None]
        assert failures == []


class TestClosedStdout:
    """A reader that closes stdout early: exit 1, and nothing on stderr."""

    def test_a_reader_that_closes_the_pipe_after_one_line(self, tmp_path):
        # A dim-64 report is far larger than a pipe's buffer, so the writer is
        # still writing when the pipe closes.
        path = write_operator_file(tmp_path / "u64.json", random_unitary(64, seed=3), "unitary")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "raysym", "reconstruct", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == b"report\treconstruction\n"
        assert (code, err) == (1, b"")

    def test_a_closed_stdout_is_pointed_at_devnull(self, monkeypatch, tmp_path, identity_file):
        # A short report is still buffered when main returns; the flush raises.
        with open(tmp_path / "stdout", "w") as target:

            class Closed(io.StringIO):
                def flush(self):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", Closed())
            assert main(["reconstruct", identity_file]) == 1
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))

    def test_a_redirected_stdout_gets_the_whole_report(self, capsys, identity_file):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["reconstruct", identity_file])
        assert code == 0
        assert out.getvalue() == "\n".join(render_reconstruction(
            reconstruct(induced_map(SymmetryOperator(np.eye(2))), 2))) + "\n"
        assert capsys.readouterr() == ("", "")
