#!/usr/bin/env bash
# The gates for the benchmark crate (root CI does not see this package):
# formatting, lints, tests, the smoke run, and the API-surface rule.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release -q
cargo run --offline --release --quiet -- smoke

# The harness must survive the deletion of execution tiers, shorthand
# constructors and `_with` twins without being edited, so it may not name them.
forbidden='ExecutorConfig::(sequential|with_threads|sharded|auto|with_backend|with_plane)|DeliveryBackend::|MessagePlane::|set_default_threads|treeops::|router::|plane::|shard::'
# `foo_with(` twins, std's `starts_with(` / `ends_with(` aside.
twins=$(grep -nE '_with\(' src/*.rs | grep -vE '(starts|ends)_with\(' || true)
if [ -n "$twins" ] || grep -nE "$forbidden" src/*.rs; then
    echo "$twins"
    echo "check.sh: the harness names an API outside its allowed surface (see README.md)" >&2
    exit 1
fi
echo "check.sh: ok"
