#!/usr/bin/env bash
# Mutation score: how many small semantic bugs the test suites catch.
# Each ci/mutants/*.patch is applied with `git apply` to a throwaway
# `git worktree` of HEAD (the working tree is never touched); tier-1
# (`cargo build --release && cargo test -q`) runs first, then
# `cargo test --workspace -q`. A mutant is killed by the first failing
# test; one that every test passes survives.
#
#   ci/mutation-score.sh [PATCH...]   default: every ci/mutants/*.patch
#
# Prints `mutant | first failing test | seconds` and the score. Fails on
# a patch that does not apply or does not build, and on a survivor whose
# patch has no `# survives: <why it cannot be observed>` header line.
# Every mutant builds into one shared target directory ($CARGO_TARGET_DIR,
# default a temporary one), so only the mutated crate and its dependents
# recompile.
set -euo pipefail

patches=()
for p in "$@"; do patches+=("$(realpath "$p")"); done
cd "$(dirname "$0")/.."
root=$PWD
work="$(mktemp -d)"
tree="$work/tree"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" HEAD

if [ ${#patches[@]} -eq 0 ]; then patches=("$root"/ci/mutants/*.patch); fi

# The first failing test in a cargo log: `<target>: <test name>`. A test
# binary that aborts (a panic inside a destructor) prints no `---- <name>
# stdout ----` block, so the first `thread '<name>' panicked` line names it.
first_failure() {
    awk '/^---- .* stdout ----$/ && !name { name = $2 }
         /^thread \047.*\047.* panicked at/ && !panicked { split($0, q, "\047"); panicked = q[2] }
         /to rerun pass `/ && !target { split($0, q, "`"); target = q[2] }
         END { if (!name) name = panicked
               print (target ? target ": " : "") (name ? name : "(no test named)") }' "$1"
}

killed=0 total=0 bad=0
printf '%-44s | %-60s | %s\n' mutant "first failing test" seconds
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    log="$work/$name.log"
    total=$((total + 1))
    git -C "$tree" reset --quiet --hard HEAD
    if ! git -C "$tree" apply "$patch"; then
        printf '%-44s | %-60s |\n' "$name" "ERROR: does not apply"
        bad=1
        continue
    fi
    start=$SECONDS
    if ! (cd "$tree" && cargo build --release -q) >"$log" 2>&1; then
        printf '%-44s | %-60s |\n' "$name" "ERROR: does not build"
        bad=1
        continue
    fi
    if ! (cd "$tree" && cargo test -q && cargo test --workspace -q) >>"$log" 2>&1; then
        killed=$((killed + 1))
        printf '%-44s | %-60s | %d\n' "$name" "$(first_failure "$log")" $((SECONDS - start))
        continue
    fi
    reason=$(sed -n 's/^# survives: //p' "$patch")
    if [ -n "$reason" ]; then
        printf '%-44s | %-60s | %d\n' "$name" "survives: $reason" $((SECONDS - start))
    else
        printf '%-44s | %-60s | %d\n' "$name" "SURVIVED (no test fails)" $((SECONDS - start))
        bad=1
    fi
done
echo "mutation score: $killed/$total killed"
exit "$bad"
