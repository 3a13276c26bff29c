#!/bin/sh
# Check that every patchgraph command writes the same bytes in the working
# tree as at revision REV.  Extracts `git archive REV` into a temporary
# directory and runs this tree's tools/cli_outputs.sh on that tree and on
# the working tree.  On any difference it names each differing or missing
# file on one line (`diff -rq`), prints the full diff of each differing
# file that is neither JSON nor CSV (the log, images), summarises the JSON
# and CSV files through tools/numeric_diff.py (the largest absolute and
# relative numeric difference of each), and exits non-zero.  Otherwise it
# prints "no difference from REV".
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
if diff -rq out-rev out-tree > differ.txt; then
    echo "no difference from $1"
    exit 0
fi
cat differ.txt
sed -n 's|^Files out-rev/\(.*\) and out-tree/.* differ$|\1|p' differ.txt |
    while read -r file; do
        case $file in
            *.json | *.csv) ;;
            *) diff "out-rev/$file" "out-tree/$file" || true ;;
        esac
    done
python3 "$tree/tools/numeric_diff.py" out-rev out-tree
exit 1
