"""Largest numeric differences between the JSON and CSV files of two trees.

For each .json or .csv file that both trees hold and whose bytes differ,
prints one line: how many numbers differ, the largest absolute and the
largest relative difference, and where each lies (a JSON path, or a CSV
line and column).  Text that differs, or a structure that does not line
up, is counted apart.  Exits 0 whatever it finds;
tools/compare_cli_outputs.sh runs it after `diff -r` has found a
difference.

    python3 tools/numeric_diff.py OLD NEW
"""

import csv
import json
import math
import os
import sys


def _number(value):
    """value as a float if it reads as a number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _json_leaves(a, b, where):
    """(where, a, b) for each pair of leaves at the same place; a place
    whose structure differs yields (where, a, b) of the whole subtrees."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _json_leaves(a[key], b[key],
                                    "%s.%s" % (where, key) if where else key)
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_leaves(x, y, "%s[%d]" % (where, i))
    else:
        yield where, a, b


def _csv_leaves(a, b):
    rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    if len(rows_a) != len(rows_b):
        yield "line count", len(rows_a), len(rows_b)
        return
    header = rows_a[0] if rows_a else []
    for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            yield "line %d" % (r + 1), ra, rb
            continue
        for c, (x, y) in enumerate(zip(ra, rb)):
            name = header[c] if c < len(header) else str(c)
            yield "line %d %s" % (r + 1, name), x, y


def leaves(path_a, path_b):
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        if path_a.endswith(".json"):
            yield from _json_leaves(json.load(fa), json.load(fb), "")
        else:
            yield from _csv_leaves(fa, fb)


def summary(path_a, path_b):
    """One line on the differences between two JSON or CSV files."""
    count, other = 0, 0
    worst_abs = worst_rel = (0.0, None)
    for where, a, b in leaves(path_a, path_b):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            other += a != b
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        count += 1
        diff = abs(x - y)
        if math.isfinite(diff):
            rel = diff / max(abs(x), abs(y))
        else:  # NaN or an infinity on one side only
            diff = rel = math.inf
        worst_abs = max(worst_abs, (diff, where), key=lambda t: t[0])
        worst_rel = max(worst_rel, (rel, where), key=lambda t: t[0])
    line = "%d differing numbers" % count
    if count:
        line += ", max abs %.3g at %s, max rel %.3g at %s" % (
            worst_abs + worst_rel)
    if other:
        line += ", %d differing other fields" % other
    return line


def differing(old, new):
    """Relative paths of the .json and .csv files both trees hold whose
    bytes differ, sorted."""
    out = []
    for root, _, names in os.walk(old):
        for name in names:
            if not name.endswith((".json", ".csv")):
                continue
            rel = os.path.relpath(os.path.join(root, name), old)
            other = os.path.join(new, rel)
            if os.path.isfile(other):
                with open(os.path.join(old, rel), "rb") as fa, \
                        open(other, "rb") as fb:
                    if fa.read() != fb.read():
                        out.append(rel)
    return sorted(out)


def main(argv):
    if len(argv) != 2:
        print("usage: numeric_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = argv
    for rel in differing(old, new):
        try:
            line = summary(os.path.join(old, rel), os.path.join(new, rel))
        except ValueError as exc:  # a file that does not parse
            line = "not comparable: %s" % exc
        print("%s: %s" % (rel, line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
