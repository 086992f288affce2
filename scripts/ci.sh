#!/usr/bin/env bash
# Tier-1 gate for the XED reproduction workspace (see DESIGN.md §8).
#
# Runs entirely offline: the workspace has no crates.io dependencies and
# Cargo.lock is committed. Any step failing fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "xed-lint (static analysis + golden constants)"
cargo run -q -p xtask -- lint

# Gating: call-graph proofs over the named hot paths (DESIGN.md §13) —
# transitive panic/alloc freedom, atomic-ordering audit, registry
# closure. Budget: well under 2 s including the cargo wrapper.
step "xed-analyze (call-graph hot-path proofs)"
cargo run -q -p xtask -- analyze

# --workspace: the root manifest is both package and workspace, and a
# bare build would compile only the `xed` facade — the smoke steps below
# need the xed-bench binaries. XEDD_GIT_HASH bakes the commit into the
# daemon's /healthz build info (option_env!; "unknown" when absent).
step "cargo build --release --workspace"
XEDD_GIT_HASH="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)" \
    cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

# Gating: Figures 11-14 are pinned byte for byte (DESIGN.md §18). Rerun
# them at the parameters their committed sidecars record, writing the
# tables from stdout, and fail on any diff in the tables or the JSON
# sidecars (embedded memsim.sched.* telemetry included).
step "fig11-fig14 reproduce the committed results"
for fig in 11:fig11_exec_time 12:fig12_power 13:fig13_alternatives 14:fig14_lotecc; do
    ./target/release/"${fig#*:}" --instructions 150000 --seed 2016 \
        >"results/fig${fig%%:*}.txt"
done
git diff --exit-code -- 'results/fig1[1-4].*'

# Gating: the bit-sliced trial kernel must stay bit-identical to the
# scalar path, and both estimators (lifetime Monte-Carlo and tails, which
# share one chunk scheduler) must stay thread-count invariant, under
# *release* codegen too — the debug `cargo test` above proves the
# unoptimized build, this re-runs the equivalence and thread-invariance
# tests at the optimization level the benchmarks and figure binaries
# actually ship (DESIGN.md §9.2, §14.1). The golden tail estimates run
# here too: the rare-event trial loop shares the Monte-Carlo timeline
# evaluator and skips fixed pilot rounds, so they pin it under the
# shipped codegen.
step "kernel equivalence and thread invariance (release)"
cargo test -q --release -p xed-faultsim --lib -- \
    bit_sliced_kernel_is_bit_identical_to_scalar thread_count_never_changes
cargo test -q --release -p xed --test tail_golden

# Gating: the xed-testkit cross-validation matrix (DESIGN.md §12) —
# exhaustive small-geometry oracle, analytic gate, metamorphic laws,
# golden xed-trace-v1 conformance, de-flake audit, telemetry-diff pin.
step "verify-matrix --quick"
cargo run -q -p xtask -- verify-matrix --quick

# Gating: the daemon's end-to-end smoke (DESIGN.md §15, §16) — boots on
# an ephemeral port, then exercises cold miss / warm hit byte-equality,
# canonical-key spelling invariance, streamed-partials consistency with
# batch, 400 rejection of unknown params, the /metrics registry (JSON
# and Prometheus exposition), and the tracing path, all in-process over
# real TCP. The grep re-asserts the trace case ran: a real traced
# request must export admission/cache/coalesce/evaluate/scheduler spans
# through /debug/flight.
step "xedd --selftest (incl. trace-propagation gate)"
./target/release/xedd --selftest | tee target/xedd.selftest.log
grep -q "traced request exports" target/xedd.selftest.log

# Non-gating: exercise the benchmark harness end to end (engine, thread
# sweep, JSON writer) at smoke scale. Throughput numbers from a loaded CI
# box are noise, so a slow run must not fail the gate — only a crash or a
# determinism assertion inside the harness would.
step "mc_throughput --smoke (non-gating)"
./target/release/mc_throughput --smoke --out target/BENCH_faultsim.smoke.json ||
    printf 'warning: mc_throughput smoke failed (non-gating)\n'

# Non-gating: the rare-event tail lane at smoke scale — exercises the
# clique-forced/count-conditioned estimators, the plain-MC comparison,
# and the "tail" JSON merge into the report mc_throughput just wrote.
# The >=10x CI-width gate only runs in scripts/bench.sh at full scale;
# smoke-scale ratios are noise.
step "mc_tail --smoke (non-gating)"
./target/release/mc_tail --smoke --out target/BENCH_faultsim.smoke.json ||
    printf 'warning: mc_tail smoke failed (non-gating)\n'

step "ecc_throughput --smoke (non-gating)"
./target/release/ecc_throughput --smoke --out target/BENCH_ecc.smoke.json ||
    printf 'warning: ecc_throughput smoke failed (non-gating)\n'

# Non-gating: the telemetry report pipeline end to end. xedstat asserts
# legacy-stats/registry equivalence internally, so a divergence crashes it.
step "xedstat --smoke (non-gating)"
./target/release/xedstat --smoke --telemetry target/xedstat.smoke.json ||
    printf 'warning: xedstat smoke failed (non-gating)\n'

# Non-gating: bound the telemetry overhead. Same smoke workload with the
# counters live vs. gated off; on a quiet box the two agree within noise
# (DESIGN.md §11.3 budgets < 3%). CI-box contention can exceed that, so
# report, don't gate.
step "telemetry overhead check (non-gating)"
(
    on=$(./target/release/mc_throughput --smoke --out target/BENCH_faultsim.tel-on.json |
        sed -n 's/.*headline (EccDimm): \([0-9]*\) samples\/sec.*/\1/p')
    off=$(./target/release/mc_throughput --smoke --no-telemetry \
        --out target/BENCH_faultsim.tel-off.json |
        sed -n 's/.*headline (EccDimm): \([0-9]*\) samples\/sec.*/\1/p')
    awk -v on="$on" -v off="$off" 'BEGIN {
        pct = (off - on) * 100.0 / off;
        printf "telemetry on: %d samples/sec, off: %d samples/sec, overhead: %.1f%%\n",
            on, off, pct;
        if (pct > 3.0) printf "warning: telemetry overhead above the 3%% budget (non-gating)\n";
    }'
) || printf 'warning: telemetry overhead check failed (non-gating)\n'

printf '\nci.sh: all tier-1 checks passed\n'
