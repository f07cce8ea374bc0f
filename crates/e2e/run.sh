#!/usr/bin/env bash
# lingua-e2e: build the benchmark and run it. One command:
#
#   crates/e2e/run.sh [--seed N] [--seconds S] [--out FILE]     every workload, one JSON document
#   crates/e2e/run.sh --sets 2 --runs 5 [--out FILE]            the noise protocol
#   crates/e2e/run.sh --smoke                                   the full run in a few seconds
#   crates/e2e/run.sh --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's driver calls)
#   crates/e2e/run.sh --self-test                               cargo test -p lingua-e2e, in the same build
#
# Run it from the root of a checkout. It builds into $CARGO_TARGET_DIR
# (default .bench_build) from a shadow copy of the sources kept there, so the
# checkout itself is never written to: against the registry when the
# workspace's dependencies resolve, otherwise against the functional stand-ins
# under crates/e2e/offline/. The output records which (`build_mode`); numbers
# from different modes are never compared.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/e2e/src ]]; then
    echo "run.sh: run from the root of a checkout of the workspace" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
shadow="$build/shadow"
bin="$build/release/lingua-e2e"
stamp="$build/lingua-e2e.mode"

# Anything newer than the last build? (Also true when there was none.)
stale() {
    [[ ! -x "$bin" || ! -f "$stamp" ]] && return 0
    [[ -n "$(find Cargo.toml BENCHMARK.json crates tests examples -type f -newer "$stamp" -not -path '*/results/*' -print -quit)" ]]
}

if stale; then
    # A fresh copy each time, so files deleted from the checkout are gone
    # from the shadow too; -p keeps mtimes, so cargo rebuilds only what changed.
    rm -rf "$shadow"
    mkdir -p "$shadow"
    cp -Rp Cargo.toml BENCHMARK.json crates tests examples "$shadow/"
    [[ -f Cargo.lock ]] && cp -p Cargo.lock "$shadow/"
    mode=registry
    if ! (cd "$shadow" && CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
            cargo metadata --format-version 1 >/dev/null 2>&1); then
        mode=offline-stubs
        rm -f "$shadow/Cargo.lock"
        {
            echo
            echo '[patch.crates-io]'
            for dep in rand serde serde_json parking_lot crossbeam criterion proptest; do
                echo "$dep = { path = \"crates/e2e/offline/$dep\" }"
            done
        } >>"$shadow/Cargo.toml"
    fi
    [[ $mode == offline-stubs ]] && offline=--offline
    (cd "$shadow" && CARGO_TARGET_DIR="$build" cargo build --release ${offline:-} -p lingua-e2e >&2)
    echo "$mode" >"$stamp"
fi

export LINGUA_E2E_BUILD_MODE="$(cat "$stamp")"
export LINGUA_E2E_WORK="$build/work"
if [[ ${1:-} == --self-test ]]; then
    [[ $LINGUA_E2E_BUILD_MODE == offline-stubs ]] && offline=--offline
    cd "$shadow" && CARGO_TARGET_DIR="$build" exec cargo test --release ${offline:-} -p lingua-e2e
fi
exec "$bin" "$@"
