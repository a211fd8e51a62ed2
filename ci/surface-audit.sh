#!/bin/sh
# Surface audit: every `pub fn` of the library crates that nothing names
# outside its own file's `mod tests`.
#
#   ci/surface-audit.sh          print the list, one `file: name` per line
#   ci/surface-audit.sh --check  fail on any line ci/surface-allow.txt does
#                                not keep (with a one-line reason), and on
#                                any allow entry that is no longer needed
#
# Name-based, grep/awk only: a name counts as used when the identifier
# appears on any non-comment line of crates/, src/, tests/, examples/ or
# benchmark/src other than its own definition and its own file's unit
# tests. So a short common name is never reported; a reported name is
# dead or test-only for certain.
set -eu
cd "$(dirname "$0")/.."

audit() {
    find crates src tests examples benchmark/src -name '*.rs' | sort | xargs awk '
        FNR == 1 {
            in_tests = 0
            lib = FILENAME ~ /^crates\/(sim|trace|mem|ipc|net|kernel|core|workloads|pool)\/src\//
        }
        /^mod tests/ { in_tests = 1 }
        /^[ \t]*\/\// { next }
        {
            line = $0
            if (lib && !in_tests && match(line, /pub (const )?fn [A-Za-z0-9_]+/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.* /, "", name)
                defs[++n] = FILENAME SUBSEP name
                ndef[name]++
            }
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            count = split(line, word, " ")
            for (i = 1; i <= count; i++) {
                total[word[i]]++
                if (in_tests) own_tests[FILENAME, word[i]]++
            }
        }
        END {
            for (i = 1; i <= n; i++) {
                split(defs[i], d, SUBSEP)
                if (total[d[2]] - own_tests[d[1], d[2]] - ndef[d[2]] == 0)
                    print d[1] ": " d[2]
            }
        }'
}

if [ "${1:-}" != --check ]; then
    audit
    exit
fi
kept=$(sed 's/ *#.*//' ci/surface-allow.txt | sort)
found=$(audit | sort)
new=$(printf '%s\n' "$found" | grep -vxF -e "$kept" || true)
stale=$(printf '%s\n' "$kept" | grep -vxF -e "$found" || true)
[ -z "$new" ] || printf 'pub fn with no caller outside its own unit tests:\n%s\n' "$new"
[ -z "$stale" ] || printf 'ci/surface-allow.txt keeps what is gone or used:\n%s\n' "$stale"
[ -z "$new$stale" ]
