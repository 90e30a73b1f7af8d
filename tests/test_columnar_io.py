"""Column-wise CSV reading and writing against the row readers.

``ingest_series``, ``read_series_csv``, ``read_reference_csv`` and
``load_hierarchy`` build every result from whole columns: plain text is
split on newlines and commas, any other text is read by ``csv.reader``, and
a failed bulk check names the first row that fails a check.
``write_series_csv`` and ``write_deviation_csv`` join formatted lines and
quote a cell that holds a comma, quote, CR or LF, as ``csv.writer`` does,
so every CSV regio writes reads back. The properties below generate files
(and series) with the defects each bulk check must catch, and require the
result, or the error, of the row readers regio had before
(``row_reference``).
"""

import csv
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import row_reference
from conftest import build_country
from regio.cli import main as cli_main
from regio.config import read_reference_csv
from regio.errors import DuplicateCode, NonNumericValue, UnknownLevel, UnknownRegion
from regio.hierarchy import (
    RegionHierarchy, RegionNode, SpatialLevel, _csv_columns, load_hierarchy,
)
from regio.series import (
    ConfidenceLevel,
    SeriesMeta,
    _WRITE_CHUNK,
    VariableSeries,
    ingest_series,
    read_series_csv,
    write_series_csv,
)
from regio.validation import DEVIATION_HEADER, DeviationRow, write_deviation_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

HIERARCHY = RegionHierarchy(build_country("AA", 1, 2, 2, 3) + build_country("BB", 1, 1, 2, 3))
LEVELS = (SpatialLevel.LAU, SpatialLevel.NUTS3)
CODES = [code for level in LEVELS for code in HIERARCHY.regions_at(level)] + ["ZZ_1", "AA"]

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.just(""),  # missing
)
# value cells float() rejects, or reads as NaN or inf, or reads although odd
ODD_VALUES = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "abc", " ", " 2.5", "1_000", "-0"]
)
GRADES = st.sampled_from([level.name for level in ConfidenceLevel])
ODD_GRADES = st.sampled_from(["", "BEST", " HIGH", "high"])
LABELS = st.sampled_from(["", "Alpha", " Beta ", "two words", "  "])
# whitespace str.strip removes: ASCII (space, tab, file separator) and not
PADDING = st.sampled_from([" ", " ", "\t", "\x1f", "\xa0"])
# the defects a row can get; the ones the bulk checks catch alone come more often
DEFECTS = [
    "pad", "pad", "quote", "drop", "drop", "add", "blank", "blank", "value", "value", "value",
    "tail", "tail", "repeat",
]


def outcome(read, *args):
    """What ``read(*args)`` gives: a comparable summary, or the error."""
    try:
        result = read(*args)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    if isinstance(result, tuple):  # read_reference_csv: (series, labels)
        return summary(result[0]), result[1]
    return summary(result)


def summary(series: VariableSeries):
    return (
        series.variable_id, series.level, series.country_scope, series.codes,
        [value.hex() for value in series.data.tolist()], series.grades.tolist(),
    )


@st.composite
def csv_text(draw, header, rows, odd_tail=None):
    """``header`` and ``rows`` (lists of cells) as CSV text, with up to two
    defects (a padded, quoted, dropped or extra cell, a blank line, an odd
    value or ``odd_tail`` cell, a repeated row), often in the last row; and
    maybe another header, CRLF, quotes everywhere or no final newline."""
    rows = [list(row) for row in rows]
    odd_headers = [[" " + header[0]] + header[1:], header[:-1], []]
    header = draw(st.sampled_from([header] * 16 + odd_headers))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(DEFECTS))
        if not rows:
            break
        at = draw(st.one_of(st.just(len(rows) - 1), st.integers(0, len(rows) - 1)))
        row = rows[at]
        if not row:
            continue
        cell = draw(st.integers(0, len(row) - 1))
        if kind == "pad":
            space = draw(PADDING)
            row[cell] = f"{space}{row[cell]}{space}"
        elif kind == "quote":
            row[cell] = f'"{row[cell]}"'
        elif kind == "drop":
            del row[cell]
        elif kind == "add":
            row.append(draw(st.sampled_from(["", "x", "1"])))
        elif kind == "blank":
            rows.insert(at, draw(st.sampled_from([[], [" "], [""] * len(row)])))
        elif kind == "value" and len(row) > 1:
            row[1] = draw(ODD_VALUES)
        elif kind == "tail" and odd_tail is not None and len(row) > 2:
            row[2] = draw(odd_tail)
        elif kind == "repeat":
            rows.insert(at, list(row))
    newline = draw(st.sampled_from(["\n"] * 7 + ["\r\n"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 19)) == 0:
        lines = [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]
    end = newline if draw(st.integers(0, 4)) else ""
    return newline.join(lines) + end


@st.composite
def region_rows(draw, tail):
    """A series' meta and the rows of its region CSV: ``region, value`` plus
    a ``tail`` cell unless it is None. The regions are the whole scope in
    code order (the shared-tuple case), a permutation of it, or any codes,
    out-of-scope ones too."""
    level, country = draw(st.sampled_from(LEVELS)), draw(st.sampled_from([None, "AA"]))
    meta = SeriesMeta("x", "d", "u", level, country or "ALL")
    scope = HIERARCHY.regions_at(level, country)
    regions = draw(st.sampled_from([
        st.just(scope), st.just(scope), st.permutations(scope), st.permutations(scope),
        st.lists(st.sampled_from(CODES + [""]), max_size=25),
    ]).flatmap(lambda regions: regions))
    rows = [[region, draw(VALUES)] for region in regions]
    if tail is not None:
        rows = [row + [draw(tail)] for row in rows]
    return meta, rows


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "data.csv"
    path.unlink(missing_ok=True)  # ext4 flushes a file truncated or renamed over
    path.write_bytes(text.encode("utf-8"))
    return path


@PROPERTY
@given(data=st.data())
def test_ingest_series_matches_row_reader(tmp_path, data):
    meta, rows = data.draw(region_rows(None))
    path = write(tmp_path, data.draw(csv_text(["region", "value"], rows)))
    assert outcome(ingest_series, path, meta, HIERARCHY) == outcome(
        row_reference.ingest_series, path, meta, HIERARCHY
    )


@PROPERTY
@given(data=st.data())
def test_read_series_csv_matches_row_reader(tmp_path, data):
    meta, rows = data.draw(region_rows(GRADES))
    path = write(tmp_path, data.draw(csv_text(["region", "value", "confidence"], rows, ODD_GRADES)))
    assert outcome(read_series_csv, path, meta, HIERARCHY) == outcome(
        row_reference.read_series_csv, path, meta, HIERARCHY
    )


@PROPERTY
@given(data=st.data(), labelled=st.booleans())
def test_read_reference_csv_matches_row_reader(tmp_path, data, labelled):
    meta, rows = data.draw(region_rows(LABELS if labelled else None))
    header = ["region", "value", "label"] if labelled else ["region", "value"]
    path = write(tmp_path, data.draw(csv_text(header, rows, LABELS)))
    assert outcome(read_reference_csv, path, HIERARCHY, meta.level) == outcome(
        row_reference.read_reference_csv, path, HIERARCHY, meta.level
    )


# -- hierarchy.csv -------------------------------------------------------------

SMALL = build_country("AA", 1, 1, 2, 2) + build_country("BB", 1, 1, 1, 2)
SMALL_ROWS = [[n.code, n.level.name, n.parent or "", n.country] for n in SMALL]
SMALL_CODES = [row[0] for row in SMALL_ROWS]


@st.composite
def hierarchy_rows(draw):
    """The rows of a valid hierarchy, in any order, with some of the faults
    the bulk checks must catch."""
    rows = [list(row) for row in draw(st.permutations(SMALL_ROWS))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(["dup", "drop", "code", "level", "parent", "country"]))
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "dup":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        elif kind == "drop":
            del rows[at]
        elif kind == "code":
            rows[at][0] = draw(st.sampled_from(SMALL_CODES + ["", "CC"]))
        elif kind == "level":
            rows[at][1] = draw(st.sampled_from([level.name for level in SpatialLevel] + ["NUTS9"]))
        elif kind == "parent":
            rows[at][2] = draw(st.sampled_from(SMALL_CODES + ["", "XX"]))
        else:
            rows[at][3] = draw(st.sampled_from(["AA", "BB", "CC"]))
    return rows


def hierarchy_outcome(path, load=load_hierarchy):
    try:
        h = load(path)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    parents = {level: index.tolist() for level, index in h._parent.items()}
    nodes = [h.node(code) for level in SpatialLevel for code in h.regions_at(level)]
    return nodes, h._codes, h._position, parents, len(h)


@PROPERTY
@given(data=st.data())
def test_load_hierarchy_matches_row_reader_and_node_checks(tmp_path, data):
    text = data.draw(csv_text(["code", "level", "parent", "country"], data.draw(hierarchy_rows())))
    path = write(tmp_path, text)
    assert hierarchy_outcome(path) == hierarchy_outcome(path, row_reference.load_hierarchy)


# Two faults each, where file order and check order disagree: the first row
# that fails a check is reported, and a row too wide or too narrow only once
# the rows before it pass; in a hierarchy every code check comes before
# every parent check.
FIRST_FAULT = [
    pytest.param(
        "series", "region,value\nAA_000_0000,1\nZZ_1,2\nAA_000_0001,3,4\n",
        (UnknownRegion, "{path}:3: region 'ZZ_1' is not a LAU region of scope ALL"),
        id="scope-before-width",
    ),
    pytest.param(
        "series", "region,value\nAA_000_0000,1,4\nZZ_1,2\n",
        (NonNumericValue, "{path}:2: expected 2 columns, got 3"), id="width-before-scope",
    ),
    pytest.param(
        "reference", "region,value\nAA000,\nAA001,abc\n",
        (NonNumericValue, "{path}:2: empty value for 'AA000'"), id="empty-before-non-numeric",
    ),
    pytest.param(
        "reference", "region,value\nAA000, x\nAA001,\n",
        (NonNumericValue, "{path}:2: non-numeric value ' x'"), id="non-numeric-before-empty",
    ),
    pytest.param(
        "hierarchy", "code,level,parent,country\nAA,NUTS0,,AA\nAA1,NUTS1,XX,AA\nAA,NUTS0,,AA\n",
        (DuplicateCode, "duplicate region code 'AA'"), id="dangling-parent-before-duplicate",
    ),
    pytest.param(
        "hierarchy", "code,level,parent,country\nAA,NUTS0,,AA\nAA1,NUTS9,AA,AA\nAA2,NUTS1\n",
        (UnknownLevel, "unknown spatial level 'NUTS9'"), id="level-before-width",
    ),
]
FIRST_FAULT_READERS = {
    "series": (ingest_series, row_reference.ingest_series),
    "reference": (read_reference_csv, row_reference.read_reference_csv),
    "hierarchy": (load_hierarchy, row_reference.load_hierarchy),
}


@pytest.mark.parametrize("reader,text,error", FIRST_FAULT)
def test_first_fault_in_file_order(tmp_path, reader, text, error):
    path = write(tmp_path, text)
    args = {
        "series": (SeriesMeta("x", "d", "u", SpatialLevel.LAU), HIERARCHY),
        "reference": (HIERARCHY, SpatialLevel.NUTS3),
        "hierarchy": (),
    }[reader]
    expected = (error[0], error[1].format(path=path))
    for read in FIRST_FAULT_READERS[reader]:
        assert outcome(read, path, *args) == expected, read.__module__


# -- every spelling csv.reader reads -------------------------------------------

def table_outcome(path: Path):
    """What ``_csv_columns`` gives, as comparable values, or the error."""
    try:
        table = _csv_columns(path, NonNumericValue)
    except NonNumericValue as exc:
        return NonNumericValue, str(exc)
    error = table.width_error
    return table.header, list(table.lines), table.columns, table.raw, error and str(error)


def csv_reader_table(path: Path):
    """``table_outcome`` from ``csv.reader`` rows alone (``row_reference``)."""
    try:
        rows = list(row_reference._csv_rows(path, NonNumericValue))
    except NonNumericValue as exc:
        return NonNumericValue, str(exc)
    (_, header), *body = rows or [(1, None)]
    body = [(line, row) for line, row in body if "".join(row).strip()]
    error = None
    for at, (line, row) in enumerate(body):
        if len(row) != len(header):
            error = f"{path}:{line}: expected {len(header)} columns, got {len(row)}"
            body = body[:at]
            break
    raw = [[row[i] for _, row in body] for i in range(len(header or ()))]
    columns = [[cell.strip() for cell in cells] for cells in raw]
    return header, [line for line, _ in body], columns, raw, error


# characters that split and csv.reader, or str.strip, may treat otherwise
ODD = '"\r \t\x0b\x0c\x1c\x1f\x00\x7f\x85\xa0\u2028\xe9'


@st.composite
def csv_body(draw):
    """Rows of two cells (now and then one or three), the cells drawn from
    plain characters and one odd one, the last row ended by a newline, by
    none or by blank lines; or any text of these characters."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(st.sampled_from(list("ab1,,\n\n") + list(ODD))))
    odd, plain = st.sampled_from(["", "", draw(st.sampled_from(ODD))]), st.text("ab1", max_size=2)
    cell = st.tuples(odd, plain, odd, plain, odd).map("".join)
    width = st.sampled_from([2] * 8 + [1, 3])
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(cell, min_size=n, max_size=n))))
    end = draw(st.sampled_from(["\n"] * 5 + ["", "\n\n", "\n\n\n"]))
    return "\n".join(",".join(row) for row in rows) + end if rows else ""


@pytest.mark.parametrize("odd", ["", *ODD])
def test_csv_columns_read_each_odd_character_as_csv_reader(tmp_path, odd):
    """Each odd character at the edge of a cell, inside one, in the header
    and in a blank row (with ``odd`` empty, a plain blank row ``,``)."""
    for template in [
        "a,b\n{0}x,1\n", "a,b\nx{0},1\n", "a,b\nx{0}y,1{0}\n", "a{0},b\nx,1\n",
        "a,b\n{0},{0}\nx,1\n", "a,b\n{0}\nx,1\n", "a,b\ny,2\n{0}x,1\n",
    ]:
        path = write(tmp_path, template.format(odd))
        assert table_outcome(path) == csv_reader_table(path)


@PROPERTY
@given(header=st.sampled_from(["a,b\n"] * 4 + ["a , b\n", '"a",b\r\n', "a,c\n", ""]), body=csv_body())
def test_csv_columns_match_csv_reader(tmp_path, header, body):
    """Plain text is split on newlines and commas; whatever the text, the
    cells and their row numbers are the ones csv.reader reads, without blank
    rows, up to the first row not as wide as the header."""
    path = write(tmp_path, header + body)
    assert table_outcome(path) == csv_reader_table(path)


def crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


def quoted(text: str) -> str:
    return "".join(
        ",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines()
    )


def blank_lines(text: str) -> str:
    return text.replace("\n", "\n\n")


def padded(text: str) -> str:
    return "".join(
        ",".join(f" {cell}\t" for cell in line.split(",")) + "\n" for line in text.splitlines()
    )


# Texts at the edges of the plain split: no final newline, no body, no
# header, an extra comma on a last line without a newline, widths that only
# sum to the header's, blank rows of one cell and of empty cells.
EDGE_TEXTS = [
    "a,b\n", "a,b", "", "\n", "\n\n", "a,b\n1,2\n3,4,", "a,b\n1,2\n3,4", "a,b\n1,2,3\n4\n",
    "a,b\n1\n2,3,4\n", "a\n1\n\n2\n", "a\n\n", "a,b,c\n1,2,3\n,,\n4,5,6\n", "a,b\n,1\n",
    ",b\n1,2\n", "\na,b\n1,2\n", "a,b\n1,2\n\n", "a,b\n1,2\n\n3,4",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_csv_columns_read_edge_texts_as_csv_reader(tmp_path, text):
    path = write(tmp_path, text)
    assert table_outcome(path) == csv_reader_table(path)


@pytest.mark.parametrize("text", [
    'region,label\r\nA,"x\r\ny"\r\n',  # \r\n in a quoted cell stays in the cell
    "a,b\r\n1,2\r\r\n3,4\r\n",  # a lone \r ends a row of its own
    "a,b\r\n1,2\n3,4\r\n",  # \r\n and \n line ends mixed
], ids=["quoted-crlf", "lone-cr", "mixed"])
def test_csv_columns_read_crlf_texts_as_csv_reader(tmp_path, text):
    path = write(tmp_path, text)
    assert table_outcome(path) == csv_reader_table(path)


def refuse_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader read a plain file")


@pytest.mark.parametrize("text", [
    "a,b\n", "a,b", "a,b\n1,2\n3,4\n", "a,b\n1,2\n3,4", "a\nx\n", "a\nx", "a,,b\nx,,\n",
    "a,b\r\n1,2\r\n", "a,b\r\n1,2\n3,4",
])
def test_plain_text_needs_no_csv_reader(tmp_path, monkeypatch, text):
    """Plain text is split, with or without its final newline, its lines
    ended by \n or \r\n."""
    path = write(tmp_path, text)
    expected = csv_reader_table(path)
    monkeypatch.setattr(csv, "reader", refuse_csv_reader)
    assert table_outcome(path) == expected


@pytest.mark.parametrize("at_limit", [
    "a,b\nxx,{}\n".format("1" * 17), "a\n{}\n".format("1" * 20), "a\n{}".format("1" * 20),
])
def test_line_at_field_limit_is_plain_and_one_over_is_not(tmp_path, monkeypatch, at_limit):
    """A line as long as ``csv.field_size_limit()`` is split; a line one
    character longer goes to csv.reader, which may find a cell over the limit."""
    limit = csv.field_size_limit(20)
    try:
        path = write(tmp_path, at_limit.replace("1", "12", 1))  # one character over
        assert table_outcome(path) == csv_reader_table(path)
        path = write(tmp_path, at_limit)
        expected = csv_reader_table(path)
        with monkeypatch.context() as patch:
            patch.setattr(csv, "reader", refuse_csv_reader)
            assert table_outcome(path) == expected
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("spelling", [str, crlf])
def test_header_longer_than_field_limit_raises(tmp_path, spelling):
    """The field limit covers the header line too, plain or not."""
    limit = csv.field_size_limit(100)
    try:
        path = write(tmp_path, spelling("region,{}\nAA_000_0000,1\n".format("h" * 200)))
        assert table_outcome(path) == (
            NonNumericValue, f"{path}:1: field larger than field limit (100)"
        ) == csv_reader_table(path)
    finally:
        csv.field_size_limit(limit)


def test_clean_files_need_no_row_reader(tmp_path):
    """A valid file reads the same whichever way csv.reader can read it is
    spelled: every spelling of a series, an engine output, a labelled
    reference and a hierarchy gives what the plain file gives, float.hex for
    float.hex. A file that lists the whole level in order shares the
    hierarchy's code tuple."""
    laus = HIERARCHY.regions_at(SpatialLevel.LAU)
    meta = SeriesMeta("x", "d", "u", SpatialLevel.LAU)
    lines = "".join(f"{r},{i / 7!r}\n" if i % 3 else f"{r},\n" for i, r in enumerate(laus))
    nuts3 = HIERARCHY.regions_at(SpatialLevel.NUTS3)
    texts = {
        "series.csv": "region,value\n" + lines,
        "reference.csv": "region,value,label\n"
        + "".join(f"{r},{i / 3!r},{'' if i % 2 else f'{r} region'}\n" for i, r in enumerate(nuts3)),
        "hierarchy.csv": "code,level,parent,country\n"
        + "".join(",".join(row) + "\n" for row in SMALL_ROWS),
    }

    def read_all(spelling):
        folder = tmp_path / spelling.__name__
        folder.mkdir()
        for name, text in texts.items():
            (folder / name).write_bytes(spelling(text).encode("utf-8"))
        ingested = ingest_series(folder / "series.csv", meta, HIERARCHY)
        write_series_csv(ingested, folder / "out.csv")
        (folder / "output.csv").write_bytes(spelling((folder / "out.csv").read_text()).encode())
        read_back = read_series_csv(folder / "output.csv", meta, HIERARCHY)
        return (
            ingested, read_back, outcome(read_reference_csv, folder / "reference.csv",
                                         HIERARCHY, SpatialLevel.NUTS3),
            hierarchy_outcome(folder / "hierarchy.csv"),
        )

    ingested, read_back, reference, hierarchy = read_all(lambda text: text)
    assert len(reference[1]) == (len(nuts3) + 1) // 2
    for spelling in (crlf, quoted, blank_lines, padded):
        spelled = read_all(spelling)
        assert (summary(spelled[0]), summary(spelled[1])) == (
            summary(ingested), summary(read_back)
        ), spelling.__name__
        assert spelled[2:] == (reference, hierarchy), spelling.__name__
    assert list(ingested.codes) == laus and np.isnan(ingested.data).any()
    assert read_back.codes is ingested.codes


# -- writer --------------------------------------------------------------------

def csv_writer_bytes(rows) -> bytes:
    """``rows`` as ``csv.writer`` writes them, with LF line ends.

    Its terminator holds both line-end characters, so it quotes each cell
    that holds a comma, quote, CR or LF; each row's CRLF becomes LF."""
    lines = []
    for row in rows:
        buffer = io.StringIO(newline="")
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


def series_rows(series: VariableSeries):
    """``write_series_csv``'s rows: a missing value leaves both cells empty."""
    yield ["region", "value", "confidence"]
    for region, value, grade in zip(series.codes, series.data.tolist(), series.grades.tolist()):
        if math.isnan(value):
            yield [region, "", ""]
        else:
            yield [region, format(value, ".17g"), ConfidenceLevel(grade).name]


CODE_TEXT = st.one_of(
    st.text(
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), min_size=1, max_size=6
    ),
    st.text(st.sampled_from('AB_1 ,"\r\n\t\x85'), min_size=1, max_size=4),
    st.sampled_from(CODES),
)


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(CODE_TEXT, st.floats(), st.sampled_from(list(ConfidenceLevel))),
        unique_by=lambda row: row[0], max_size=40,
    ),
    plain=st.booleans(),
)
def test_write_series_csv_matches_csv_writer(tmp_path, rows, plain):
    if plain:  # codes that need no quoting
        rows = [row for row in rows if not any(c in row[0] for c in ',"\r\n')]
    codes = [row[0] for row in rows]
    data = np.array([row[1] for row in rows], dtype=np.float64)
    grades = np.where(np.isnan(data), -1, [int(row[2]) for row in rows])
    series = VariableSeries("x", "", "", SpatialLevel.LAU, "ALL", codes, data, grades)
    path = tmp_path / "out.csv"
    path.unlink(missing_ok=True)
    write_series_csv(series, path)
    assert path.read_bytes() == csv_writer_bytes(series_rows(series))


def cell_text(min_size: int):
    """Any text, or text of the characters a CSV writer must quote or keep."""
    return st.one_of(
        st.text(
            st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            min_size=min_size, max_size=6,
        ),
        st.text(st.sampled_from('AB_1 ,"\r\n\t\x85\xe9'), min_size=min_size, max_size=4),
    )


# One NUTS0..NUTS3 chain above the LAU codes drawn; the filler codes, every
# third of them quoted, make a series longer than one write chunk.
UPPER = [
    RegionNode("N", SpatialLevel.NUTS0, None, "N"),
    RegionNode("N1", SpatialLevel.NUTS1, "N", "N"),
    RegionNode("N11", SpatialLevel.NUTS2, "N1", "N"),
    RegionNode("N111", SpatialLevel.NUTS3, "N11", "N"),
]
FILLER = [f"F{i:05d}" if i % 3 else f'F\r{i:05d},"' for i in range(_WRITE_CHUNK + 100)]
RESERVED = {node.code for node in UPPER} | set(FILLER)
# codes as load_hierarchy leaves them: stripped, so not empty
STRIPPED_CODE = cell_text(1).map(str.strip).filter(lambda code: code and code not in RESERVED)
VALUE_OR_MISSING = st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(STRIPPED_CODE, VALUE_OR_MISSING, st.sampled_from(list(ConfidenceLevel))),
        unique_by=lambda row: row[0], min_size=1, max_size=30,
    ),
    filler=st.sampled_from([0, 0, 0, len(FILLER)]),
)
def test_written_series_reads_back(tmp_path, rows, filler):
    """Whatever its codes, a written series reads back: ``_csv_columns``
    gives the codes in order, ``read_series_csv`` the data and grades bit
    for bit, also across write chunks."""
    rows += [(code, i / 7, ConfidenceLevel.LOW) for i, code in enumerate(FILLER[:filler])]
    lau = SpatialLevel.LAU
    hierarchy = RegionHierarchy(UPPER + [RegionNode(row[0], lau, "N111", "N") for row in rows])
    codes = hierarchy.regions_at(lau)
    by_code = {row[0]: row for row in rows}
    data = np.array([by_code[code][1] for code in codes], dtype=np.float64)
    grades = np.where(np.isnan(data), -1, [int(by_code[code][2]) for code in codes])
    series = VariableSeries("x", "", "", lau, "ALL", codes, data, grades)
    path = tmp_path / "out.csv"
    path.unlink(missing_ok=True)
    write_series_csv(series, path)
    assert _csv_columns(path, NonNumericValue).columns[0] == list(codes)
    read = read_series_csv(path, SeriesMeta("x", "", "", lau), hierarchy)
    assert read.codes == series.codes
    assert list(map(float.hex, read.data.tolist())) == list(map(float.hex, data.tolist()))
    assert read.grades.tolist() == grades.tolist()


@PROPERTY
@given(rows=st.lists(st.tuples(cell_text(0), *[st.floats()] * 4), max_size=20))
def test_write_deviation_csv_matches_csv_writer(tmp_path, rows):
    path = tmp_path / "deviation.csv"
    path.unlink(missing_ok=True)
    write_deviation_csv([DeviationRow(*row) for row in rows], path)
    assert path.read_bytes() == csv_writer_bytes(
        [DEVIATION_HEADER] + [[label, *(format(x, ".17g") for x in xs)] for label, *xs in rows]
    )


# -- whole projects --------------------------------------------------------------

def output_digests(config_path: Path) -> dict[str, str]:
    root = config_path.parent / "output"
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("spelling", [crlf, quoted, blank_lines])
def test_non_canonical_files_give_the_same_run(toy_project, spelling):
    """Every CSV input written another way csv reads gives the same outputs."""
    plain = toy_project.parent.with_name("plain")
    shutil.copytree(toy_project.parent, plain)
    assert cli_main(["run", "--config", str(plain / "config.json")]) == 0
    root = toy_project.parent
    for path in [root / "hierarchy.csv", *root.glob("series/*.csv"), *root.glob("reference/*.csv")]:
        path.write_bytes(spelling(path.read_text(encoding="utf-8")).encode("utf-8"))
    assert cli_main(["run", "--config", str(toy_project)]) == 0
    assert output_digests(toy_project) == output_digests(plain / "config.json")
