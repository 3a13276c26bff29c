#!/bin/sh
# Check that every patchgraph command writes the same bytes in the working
# tree as at revision REV.  Extracts `git archive REV` into a temporary
# directory, runs this tree's tools/cli_outputs.sh on that tree and on the
# working tree, and prints `diff -r` of the two output trees.  On any
# difference it then prints, through tools/numeric_diff.py, the largest
# absolute and relative numeric difference of each differing JSON and CSV
# file, and exits non-zero.
#
#   tools/compare_cli_outputs.sh HEAD
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
tree=$(cd "$(dirname "$0")/.." && pwd)
if ! git -C "$tree" rev-parse --verify -q "$1^{commit}" > /dev/null; then
    echo "$0: unknown revision $1" >&2
    exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$tree" archive "$1" | tar -x -C "$tmp/rev"
sh "$tree/tools/cli_outputs.sh" "$tmp/rev" "$tmp/out-rev"
sh "$tree/tools/cli_outputs.sh" "$tree" "$tmp/out-tree"
cd "$tmp"
if ! diff -r out-rev out-tree; then
    python3 "$tree/tools/numeric_diff.py" out-rev out-tree
    exit 1
fi
echo "no difference from $1"
