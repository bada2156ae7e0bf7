#!/bin/sh
# Tier-1 verification: everything a reviewer needs to trust a change.
# Runs fully offline; mirrors what CI would run.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release (workspace, -D warnings) =="
RUSTFLAGS="-D warnings" cargo build --workspace --release

echo "== serving tier links no simulator (cargo tree -e normal: no device, simulator or replica crate, no serde) =="
for crate in orsp-server orsp-storage orsp-net orsp-search orsp-proxy orsp-top; do
    tree=$(cargo tree --offline -e normal --prefix none -p "$crate")
    linked=$(echo "$tree" | awk '{print $1}' | sort -u \
        | grep -xE 'orsp-(client|world|sensors|anonet|inference|measure|aggregate|core|replica)|serde.*' \
        || true)
    if [ -n "$linked" ]; then
        echo "$crate links:" $linked
        exit 1
    fi
done

echo "== cargo test -q =="
cargo test -q --workspace

echo "== obs test suites (registry unit tests, N-thread hammer) =="
cargo test -q --release -p orsp-obs --lib
cargo test -q --release -p orsp-obs --test concurrency
# The snapshot-under-writers race only shows on >= 2 cores and then only
# in some runs: one pass proves nothing, 200 consecutive ones do.
i=0
while [ "$i" -lt 200 ]; do
    cargo test -q --release -p orsp-obs --test concurrency \
        snapshots_of_monotonic_metrics_never_go_backwards >/dev/null 2>&1 \
        || { echo "concurrency: run $i failed"; exit 1; }
    i=$((i + 1))
done

echo "== crypto (Montgomery kernels and in-place inverse vs their oracles, CRT vs direct, golden keys; E6 prices 256-2048-bit tokens and asserts its shape checks) =="
cargo test -q --release -p orsp-crypto
cargo run --release -p orsp-bench --bin e6_tokens

echo "== net test suites (codec proptests, frame reassembly, TCP integration, server contracts in release and debug, idle fleet of 5000 on 4 workers, end-to-end digest) =="
cargo test -q --release -p orsp-net --test wire_proptests
cargo test -q --release -p orsp-net --test frame_reassembly
cargo test -q --release -p orsp-net --test tcp_roundtrip
cargo test -q --release -p orsp-net --test server_contract
cargo test -q -p orsp-net --test server_contract
cargo test -q --release -p orsp-net --test idle_fleet
cargo test -q --release -p orsp-core --test net_end_to_end

echo "== service concurrency (domain locks: hammer, shard routing; debug build carries the lock-order assertion) =="
cargo test -q --release -p orsp-net --test service_hammer
cargo test -q -p orsp-net --test service_hammer
cargo test -q -p orsp-server lockorder

echo "== storage test suites (engine and reshard 2->4 units, crash matrix, group-commit equivalence, served-crash recovery; 64 uploaders at fsync=always reach >= 20x the seed's one-fsync-per-record rate) =="
# Each release test binary runs once: the per-crate line runs the unit
# tests only, and every integration test has its own line below.
cargo test -q --release -p orsp-storage --lib
cargo test -q --release -p orsp-storage --test crash_matrix
# The mid-group power-cut sweep also runs in a debug build: overflow and
# debug_assert checks cover the batch/boundary arithmetic release elides.
cargo test -q -p orsp-storage --test crash_matrix
cargo test -q --release -p orsp-storage --test group_commit
# Re-measures on this machine; the rate bound (>= 93 120 rec/s) is
# asserted in release only.
cargo test -q --release -p orsp-storage --test group_commit_throughput
cargo test -q --release -p orsp-core --test storage_recovery

echo "== proxy test suites (merge rules, routing/failure semantics, impossible replication factor refused, pipelined legs over one connection per backend, 3-backend digest equality over TCP) =="
cargo test -q --release -p orsp-proxy --lib
cargo test -q --release -p orsp-proxy --test cluster_shape
cargo test -q --release -p orsp-proxy --test pipelined_legs
cargo test -q --release -p orsp-proxy --test proxy_end_to_end

echo "== benchmark smoke: every read answer equals the reference, no op fails, on all four workloads (the CRC sits on the upload, WAL and read paths) =="
for workload in device_roundtrip ingest_open read_mix mixed_fresh; do
    last=$(bash benchmark/run.sh --quick --workload "$workload" | tail -n 1)
    case "$last" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "benchmark smoke failed on $workload: $last"; exit 1 ;;
    esac
done

echo "== trace causality (proxy + 2 backends over TCP: one connected span tree, proxy root to wal_fsync) =="
cargo test -q --release -p orsp-proxy --test trace_end_to_end

echo "== replica suites (topology/apply/catch-up units, Replicate sent before the local fsync, replayed Replicate skipped; SIGKILL-the-primary failover e2e; mid-catch-up power-cut matrix; single-node drain + restart, misspelt flag refused; sync RF=2 under 2x single-copy, or the 1-core serial-fsync exception) =="
cargo test -q --release -p orsp-replica --lib
cargo test -q --release -p orsp-replica --test failover_e2e
cargo test -q --release -p orsp-replica --test catchup_crash
cargo test -q --release -p orsp-replica --test single_node
# Re-measures on this machine; the ratio is asserted in release only.
cargo test -q --release -p orsp-replica --test replication_overhead

# Formatting drift fails the run (style: rustfmt.toml). The stage is
# skipped only where rustfmt is absent, as in minimal toolchains.
if command -v rustfmt >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all --check
else
    echo "== cargo fmt --check skipped (rustfmt not installed) =="
fi

echo "== verify OK =="
