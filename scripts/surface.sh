#!/usr/bin/env bash
# The public-surface scan (see ROADMAP.md): how many `pub fn`s the library
# crates declare, how many nothing outside their own file names, and how many
# only tests call; the non-test line count; and how many `pub fn X` have a
# `pub fn X_with` twin.
#
#   scripts/surface.sh      the five counts
#   scripts/surface.sh -v   ... and the functions behind the middle two and the twins
#
# Every `pub fn` line under crates/*/src is one function. Its name is searched
# as a whole word in every tracked .rs file outside vendor/, in each line's
# code only: a line is comment from its first `//` on, whole-line, trailing or
# doc comment (a `//` inside a string literal cuts it there too), and a name
# seen only there is no reference. The search skips the defining file and, in
# every lib.rs, the lines that only re-export: a `use` statement (through its
# `;`). The rest of a lib.rs is code like any other file's. A function is
# *unreferenced* when that search finds nothing. It has *no non-test caller*
# when every match is test code and its own file's non-test lines do not name
# it either. Test code is a file under a tests/ directory, or a line at or
# below its file's first `#[cfg(test)]`. Names are matched, not paths, so a
# name two items share counts as used for both. The scan exits 1 when a
# `pub fn` is unreferenced: a function nothing names is dead or belongs
# private.
#
# Non-test lines are the lines above each crates/*/src file's first
# `#[cfg(test)]`, or the whole file when it has none.
#
# A twin pair is two `pub fn`s under crates/*/src named `X` and `X_with` (a
# plain form and the same function with one more knob). The library keeps one
# form per function: the scan exits 1 when it finds a pair too.
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=false
case "${1:-}" in
    -v) verbose=true ;;
    "") ;;
    *)
        echo "usage: scripts/surface.sh [-v]" >&2
        exit 2
        ;;
esac

mapfile -t rust_files < <(git ls-files -- '*.rs' ':!vendor')
mapfile -t lib_files < <(git ls-files -- 'crates/*/src/*.rs')

# The first `#[cfg(test)]` line of every file that has one.
declare -A first_test=()
while IFS=: read -r file line _; do
    [[ -n "${first_test[$file]:-}" ]] || first_test[$file]=$line
done < <(grep -H -n -F '#[cfg(test)]' "${rust_files[@]}" || true)

# Every lib.rs line that is part of a `use` statement, as `file:line` keys.
declare -A reexport=()
for file in "${rust_files[@]}"; do
    [[ $file == lib.rs || $file == */lib.rs ]] || continue
    while IFS= read -r line; do
        reexport[$file:$line]=1
    done < <(awk '
        in_use || /^[[:space:]]*(pub(\([a-z]+\))? )?use / {
            print NR
            in_use = !/;/
        }' "$file")
done

# names_in_code NAME TEXT: whether NAME is a whole word of TEXT before its
# first `//`.
names_in_code() {
    [[ ${2%%//*} =~ (^|[^A-Za-z0-9_])$1([^A-Za-z0-9_]|$) ]]
}

# is_test FILE LINE: whether line LINE of FILE is test code.
is_test() {
    [[ $1 == tests/* || $1 == */tests/* ]] && return 0
    local first=${first_test[$1]:-}
    [[ -n $first ]] && (($2 >= first))
}

non_test_lines=0
for file in "${lib_files[@]}"; do
    first=${first_test[$file]:-}
    if [[ -n $first ]]; then
        non_test_lines=$((non_test_lines + first - 1))
    else
        non_test_lines=$((non_test_lines + $(wc -l <"$file")))
    fi
done

pub_fns=0
unreferenced=()
no_caller=()
declare -A pub_fn_at=()
while IFS=: read -r file line text; do
    [[ $text =~ pub\ fn\ ([A-Za-z_][A-Za-z0-9_]*) ]] || continue
    name=${BASH_REMATCH[1]}
    pub_fns=$((pub_fns + 1))
    pub_fn_at[$name]="$file:$line"
    referenced=false
    called=false
    while IFS=: read -r ref_file ref_line ref_text; do
        [[ $ref_file == "$file" || -n "${reexport[$ref_file:$ref_line]:-}" ]] && continue
        names_in_code "$name" "$ref_text" || continue
        referenced=true
        if ! is_test "$ref_file" "$ref_line"; then
            called=true
            break
        fi
    done < <(git grep -n -w -e "$name" -- '*.rs' ':!vendor' || true)
    if ! $called; then
        while IFS=: read -r own_line own_text; do
            names_in_code "$name" "$own_text" || continue
            if ((own_line != line)) && ! is_test "$file" "$own_line"; then
                called=true
                break
            fi
        done < <(grep -n -w -e "$name" "$file" || true)
    fi
    $referenced || unreferenced+=("$file:$line $name")
    $called || no_caller+=("$file:$line $name")
done < <(grep -H -n -F 'pub fn ' "${lib_files[@]}")

twins=()
for name in "${!pub_fn_at[@]}"; do
    if [[ $name == *_with && -n "${pub_fn_at[${name%_with}]:-}" ]]; then
        twins+=("${pub_fn_at[${name%_with}]} ${name%_with} / ${pub_fn_at[$name]} $name")
    fi
done

printf '%-20s %6d\n' \
    "pub fn" "$pub_fns" \
    "unreferenced" "${#unreferenced[@]}" \
    "no non-test caller" "${#no_caller[@]}" \
    "non-test lines" "$non_test_lines" \
    "twin pairs" "${#twins[@]}"
if $verbose; then
    if ((${#unreferenced[@]})); then
        printf '\nunreferenced:\n'
        printf '  %s\n' "${unreferenced[@]}"
    fi
    if ((${#no_caller[@]})); then
        printf '\nno non-test caller:\n'
        printf '  %s\n' "${no_caller[@]}"
    fi
    if ((${#twins[@]})); then
        printf '\ntwin pairs:\n'
        printf '  %s\n' "${twins[@]}" | sort
    fi
fi
status=0
if ((${#unreferenced[@]})); then
    echo "surface.sh: a \`pub fn\` nothing outside its own file names; delete it or make it private" >&2
    status=1
fi
if ((${#twins[@]})); then
    echo "surface.sh: a \`pub fn X\` has a \`pub fn X_with\` twin; keep one form" >&2
    status=1
fi
exit $status
