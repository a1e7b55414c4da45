#!/usr/bin/env bash
# Lines added, removed and net against BASE per top-level directory (repo
# root files as "(root)"), then the total without tests/ and tests/ alone.
# Counts come from `git diff --numstat BASE`: new files count once tracked.
#
# Usage: scripts/net_lines.sh BASE      e.g. scripts/net_lines.sh HEAD~1
set -eu
[[ $# -eq 1 ]] || { echo "usage: $0 BASE" >&2; exit 2; }
cd "$(dirname "$0")/.."
printf '%-12s %8s %8s %8s\n' dir added removed net
git diff --numstat "$1" | awk -F'\t' '$1 != "-" {  # binary files have no counts
    d = index($3, "/") ? substr($3, 1, index($3, "/") - 1) : "(root)"
    a[d] += $1; r[d] += $2
    if (d != "tests") { a["w/o tests"] += $1; r["w/o tests"] += $2 }
  }
  END { for (d in a) printf "%-12s %8d %8d %+8d\n", d, a[d], r[d], a[d] - r[d] }' |
  sort -k1,1 | awk '/^tests / { t = $0; next } /^w\/o tests/ { c = $0; next } 1
                    END { print c; if (t != "") print t }'
