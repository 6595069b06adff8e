"""Output checks of the benchmark.

Three checks, each returning a list of messages that start with the
scenario and name the table and cell at fault (an empty list means the
check passed):

* ``compare_reference``: the default-seed tables of this run against the
  committed reference tables, numeric cells within a relative tolerance of
  1e-9: reordered floating-point sums move a value by ~1e-15, while one
  changed trial outcome moves an estimate by its share of the trials, far
  above 1e-9 at the trial counts the scenarios use;
* ``check_goldens``: the fig2b and fig5 tables against data/golden_*.csv
  within tests/test_golden.cpp's tolerances;
* ``first_difference``: where two CSV outputs of one scenario (two passes,
  or two thread counts) first differ, for the thread-identity check.

Tables are the driver's full-precision dumps: {scenario: {table: {"columns":
[...], "rows": [[cell, ...], ...]}}}, a numeric cell as [value, text] (value
null when not finite), any other cell as its text.
"""

import csv
import io
import math
from pathlib import Path

REL_TOL = 1e-9

GOLDEN_TABLES = {
    ("fig2b_intra_vs_ecd", "hz_intra_vs_ecd"): "golden_fig2b.csv",
    ("fig5_tw", "tw_vs_vp"): "golden_fig5_tw.csv",
}
GOLDEN_ABS_TOL = 1e-4
GOLDEN_REL_TOL = 2e-3


def scenario_of(message):
    """The scenario a check message is about."""
    return message.split("/")[0].split(":")[0]


def _cell_text(cell):
    return cell[1] if isinstance(cell, list) else cell


def _cells_match(want, got):
    if isinstance(want, list) and isinstance(got, list):
        a, b = want[0], got[0]
        if a is None or b is None:
            return want[1] == got[1]
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return want == got


def compare_reference(reference, got, scenarios):
    """Compares the tables of `scenarios` in `got` with `reference`."""
    problems = []
    for scenario in scenarios:
        if scenario not in reference:
            problems.append(f"{scenario}: no reference tables")
            continue
        if scenario not in got:
            problems.append(f"{scenario}: no output")
            continue
        want_tables, got_tables = reference[scenario], got[scenario]
        for name in want_tables:
            if name not in got_tables:
                problems.append(f"{scenario}/{name}: missing table")
        for name in got_tables:
            if name not in want_tables:
                problems.append(f"{scenario}/{name}: unexpected table")
        for name, want in want_tables.items():
            have = got_tables.get(name)
            if have is None:
                continue
            where = f"{scenario}/{name}"
            if have["columns"] != want["columns"]:
                problems.append(f"{where}: columns {have['columns']} != "
                                f"reference {want['columns']}")
                continue
            if len(have["rows"]) != len(want["rows"]):
                problems.append(f"{where}: {len(have['rows'])} rows != "
                                f"reference {len(want['rows'])}")
                continue
            for r, (wrow, hrow) in enumerate(zip(want["rows"], have["rows"])):
                for c, (w, h) in enumerate(zip(wrow, hrow)):
                    if not _cells_match(w, h):
                        problems.append(
                            f"{where} row {r} col '{want['columns'][c]}': "
                            f"got {_cell_text(h)!s} ({h!r}), reference "
                            f"{_cell_text(w)!s} ({w!r})")
    return problems


def _parse_number(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_goldens(got, data_dir):
    """Checks the golden tables in `got` against data_dir/golden_*.csv."""
    problems = []
    for (scenario, table), file_name in GOLDEN_TABLES.items():
        where = f"{scenario}/{table}"
        path = Path(data_dir) / file_name
        with open(path, newline="") as f:
            golden = [row for row in csv.reader(f) if row]
        have = got.get(scenario, {}).get(table)
        if have is None:
            problems.append(f"{where}: missing table (golden {path})")
            continue
        if golden[0] != have["columns"]:
            problems.append(f"{where}: header drift vs {path}")
            continue
        if len(golden) - 1 != len(have["rows"]):
            problems.append(f"{where}: row count drift vs {path}")
            continue
        for r, (want_row, row) in enumerate(zip(golden[1:], have["rows"])):
            for c, (want, cell) in enumerate(zip(want_row, row)):
                text = _cell_text(cell)
                w, g = _parse_number(want), _parse_number(text)
                if w is not None and g is not None:
                    ok = abs(g - w) <= GOLDEN_ABS_TOL + GOLDEN_REL_TOL * abs(w)
                else:
                    ok = text == want
                if not ok:
                    problems.append(f"{where} row {r} col '{golden[0][c]}': "
                                    f"got {text}, golden {want}")
    return problems


def split_csv_stream(text):
    """Splits the CSV sink's stream ('# scenario/table' header, then the
    table's CSV) into {"scenario/table": [row, ...]}."""
    tables = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            name = line[2:].strip()
            tables[name] = ""
        elif name is not None:
            tables[name] += line
    return {k: list(csv.reader(io.StringIO(v))) for k, v in tables.items()}


def first_difference(expected_text, got_text):
    """Names the first table and cell where two CSV streams differ."""
    want, have = split_csv_stream(expected_text), split_csv_stream(got_text)
    for name in want:
        if name not in have:
            return f"{name}: missing table"
    for name in have:
        if name not in want:
            return f"{name}: unexpected table"
    for name, rows in want.items():
        other = have[name]
        if len(rows) != len(other):
            return f"{name}: {len(other)} rows, expected {len(rows)}"
        header = rows[0] if rows else []
        for r, (a, b) in enumerate(zip(rows, other)):
            if a == b:
                continue
            for c in range(max(len(a), len(b))):
                x = a[c] if c < len(a) else "<none>"
                y = b[c] if c < len(b) else "<none>"
                if x != y:
                    col = header[c] if c < len(header) else str(c)
                    return (f"{name} row {r - 1} col '{col}': "
                            f"got {y}, expected {x}")
    return "outputs differ outside any table"
