#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# The determinism gates below rename tracked snapshots while they
# compare runs. Restore them and drop the comparison litter on every
# exit path (success, diff failure, ^C) so a failed gate never leaves
# the tree dirty.
cleanup() {
  if [ -f results/metrics_fault_soak.run1.json ]; then
    mv -f results/metrics_fault_soak.run1.json results/metrics_fault_soak.json
  fi
  if [ -f results/chaos_soak.run1.json ]; then
    mv -f results/chaos_soak.run1.json results/chaos_soak.json
  fi
  if [ -f results/metrics_quickstart.pop4.json ]; then
    rm -f results/metrics_quickstart.pop4.json
  fi
  if [ -f results/rule_diff.run1.json ]; then
    mv -f results/rule_diff.run1.json results/rule_diff.json
  fi
  if [ -f results/lint.run1.json ]; then
    mv -f results/lint.run1.json results/lint.json
  fi
}
trap cleanup EXIT

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> stellar-lint (workspace invariants: determinism, snapshot ordering, panic budget)"
cargo run --release -q -p stellar-lint -- --root . --json results/lint.json

echo "==> stellar-lint --json artifact is byte-identical across runs"
mv results/lint.json results/lint.run1.json
cargo run --release -q -p stellar-lint -- --root . --json results/lint.json >/dev/null
diff results/lint.run1.json results/lint.json

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q --test fault_recovery -- --include-ignored (fault soak)"
cargo test --release -q --test fault_recovery -- --include-ignored

echo "==> periodic-pass pins in release: an unchanged watchdog pass allocates nothing (10^3 and 10^5 ports, standing FlowSpec NLRIs); one edit costs the same pass and reconcile at 10x the state"
# Debug builds re-run every obligation in full inside each pass (the
# incremental == full assertions), so the counts only show in release.
cargo test --release -q -p stellar-core --test quiet_pass_scale

echo "==> determinism gate: fault_soak metrics snapshot is byte-identical across runs"
cargo run --release -q --example fault_soak >/dev/null
mv results/metrics_fault_soak.json results/metrics_fault_soak.run1.json
cargo run --release -q --example fault_soak >/dev/null
diff results/metrics_fault_soak.run1.json results/metrics_fault_soak.json

echo "==> determinism gate: 4-PoP fabric run-twice and across worker counts (quickstart snapshot)"
# Parallel == sequential on one PoP and a 1-PoP fabric == the bare
# router are property-tested (parallel_tick_matches_sequential,
# proptest_fabric); this gate is the run that actually fans out.
STELLAR_POPS=4 STELLAR_TICK_WORKERS=1 cargo run --release -q --example quickstart >/dev/null
mv results/metrics_quickstart.json results/metrics_quickstart.pop4.json
STELLAR_POPS=4 STELLAR_TICK_WORKERS=1 cargo run --release -q --example quickstart >/dev/null
diff results/metrics_quickstart.pop4.json results/metrics_quickstart.json
fanout=$(STELLAR_POPS=4 STELLAR_TICK_WORKERS=8 cargo run --release -q --example quickstart)
diff results/metrics_quickstart.pop4.json results/metrics_quickstart.json
if ! printf '%s\n' "$fanout" | grep -q "fabric: 4 PoP(s), tick fanned out over the PoPs"; then
  echo "the 8-worker 4-PoP quickstart run did not fan its tick out" >&2
  exit 1
fi
rm -f results/metrics_quickstart.pop4.json
# The tracked snapshot is the plain run: one PoP, default workers.
cargo run --release -q --example quickstart >/dev/null

echo "==> scale_sweep smoke: regenerate BENCH_pipeline.json (cross-mode equality asserted in-run)"
STELLAR_SWEEP_SMOKE=1 cargo run --release -q -p stellar-bench --bin scale_sweep >/dev/null

echo "==> pop_placement smoke: budget-aware placement + 4-PoP watchdog episode (asserted in-run)"
cargo run --release -q -p stellar-bench --bin pop_placement >/dev/null

echo "==> rule_audit smoke: static rule-table analysis + control-plane batch audit"
cargo run --release -q -p stellar-bench --bin rule_audit >/dev/null

echo "==> rule_diff gate: semantic diff + proof obligations over adversarial fixtures"
# Every obligation (lowering exactness, ladder monotonicity, placement
# soundness) and every sabotage detection is asserted inside the binary;
# the quickstart runs above assert the placement obligation on the live
# 1-PoP and 4-PoP episodes. The artifact must be byte-identical across
# two from-scratch runs.
cargo run --release -q -p stellar-bench --bin rule_diff >/dev/null
mv results/rule_diff.json results/rule_diff.run1.json
cargo run --release -q -p stellar-bench --bin rule_diff >/dev/null
diff results/rule_diff.run1.json results/rule_diff.json

echo "==> flowspec conformance: hex wire vectors decode/re-encode byte-identically"
cargo test --release -q -p stellar-bgp --test flowspec_conformance

echo "==> flowspec_signal smoke: FlowSpec episode end-to-end (determinism asserted in-run)"
cargo run --release -q -p stellar-bench --bin flowspec_signal >/dev/null

echo "==> chaos_soak smoke: every fault class, watchdog-clean + converged (asserted in-run)"
STELLAR_CHAOS_SMOKE=1 cargo run --release -q -p stellar-bench --bin chaos_soak >/dev/null
mv results/chaos_soak.json results/chaos_soak.run1.json
STELLAR_CHAOS_SMOKE=1 cargo run --release -q -p stellar-bench --bin chaos_soak >/dev/null
diff results/chaos_soak.run1.json results/chaos_soak.json

echo "==> no tracked artifact reports an undischarged proof obligation"
# analyze.unverified, verify.lowering.unverified, verify.ladder.unverified
# and verify.placement.unverified are incremented only when hit; a run
# that ended with one above zero proved less than it claims.
if grep -nE '"[^"]*unverified[^"]*": *[1-9]' results/*.json; then
  echo "a tracked results/*.json reports a non-zero *.unverified counter" >&2
  exit 1
fi

echo "==> benchmark smoke: every workload, direct (--trace 0) and staged (--trace 1), oracle-checked"
# The benchmark's expected-outcome oracle (installs, hijack and
# corrupt-wire refusals, ledger, per-tick verdicts) is the gate. The
# traced run is also a differential: its staged driver audits the whole
# desired table through the public API and must end in the same per-port
# rule ids, ledger and FlowSpec RIB as the owner-scoped direct path of
# the same seed, and its export mirrors `StellarSystem::observe`. On the
# tick workloads every tick is also checked against a linear first-match
# scan over each port's rules.
for workload in flowspec_victims signal_storm tick_ixp_mix tick_sparse_fabric; do
  for trace in 0 1; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace "$trace" 2>/dev/null | tail -n 1)
    case "$result" in
      *'"correct": true'*'"failed": 0,'*) ;;
      *)
        echo "benchmark smoke failed: $workload --trace $trace: $result" >&2
        exit 1
        ;;
    esac
    # Ratchet against per-port series creeping back into the snapshot:
    # 10^5 ports with 20 attacked export well under 1 MiB, and the size
    # repeats exactly within a seed.
    if [ "$workload" = tick_sparse_fabric ] && [ "$trace" = 0 ]; then
      kib=$(printf '%s' "$result" | sed -n 's/.*"snapshot_kib": {"value": \([0-9]*\).*/\1/p')
      if [ -z "$kib" ] || [ "$kib" -gt 1024 ]; then
        echo "benchmark smoke failed: tick_sparse_fabric snapshot_kib=${kib:-missing} exceeds 1024" >&2
        exit 1
      fi
      # Ratchet against per-port state creeping back into idle ports:
      # 10^5 ports, 20 with rules, peak at ~72 MiB with a 104-byte port
      # and a tick arena sized to the touched ports; a full policy and
      # a tick slot per port cost ~149 MiB. Resident size repeats to
      # within a few hundredths of a MiB.
      rss=$(printf '%s' "$result" | sed -n 's/.*"peak_rss_mib": {"value": \([0-9.e+-]*\).*/\1/p')
      if [ -z "$rss" ] || ! awk -v r="$rss" 'BEGIN { exit !(r < 79) }'; then
        echo "benchmark smoke failed: tick_sparse_fabric peak_rss_mib=${rss:-missing} is not under 79" >&2
        exit 1
      fi
      # Ratchet against allocations creeping into the scrape: an op
      # allocates ~7.4 times with the per-PoP series names built once
      # in Fabric::new, ~10.0 with six format! calls per PoP per export.
      # The count repeats exactly within a seed.
      allocs=$(printf '%s' "$result" | sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p')
      if [ -z "$allocs" ] || ! awk -v a="$allocs" 'BEGIN { exit !(a < 8.1) }'; then
        echo "benchmark smoke failed: tick_sparse_fabric allocs_per_op=${allocs:-missing} is not under 8.1" >&2
        exit 1
      fi
      # Ratchet against an O(ports) walk creeping back into the quiet
      # watchdog pass: over 10^5 ports one cost ~17 ms, a pass answered
      # from the proof ledger costs ~0.0001 ms.
      quiet=$(printf '%s' "$result" | sed -n 's/.*"quiet_pass_p50_ms": {"value": \([0-9.e-]*\).*/\1/p')
      if [ -z "$quiet" ] || ! awk -v q="$quiet" 'BEGIN { exit !(q < 2) }'; then
        echo "benchmark smoke failed: tick_sparse_fabric quiet_pass_p50_ms=${quiet:-missing} is not under 2 ms" >&2
        exit 1
      fi
    fi
    # Ratchet against per-member export copies creeping back: with one
    # update group per NLRI a signal op allocates ~54 times at 800
    # members, one deep-copied UPDATE per member cost ~4 900, a copy of
    # the owner's desired rules per audit ~57. The count repeats exactly
    # within a seed.
    if [ "$workload" = signal_storm ] && [ "$trace" = 0 ]; then
      allocs=$(printf '%s' "$result" | sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p')
      if [ -z "$allocs" ] || ! awk -v a="$allocs" 'BEGIN { exit !(a < 55) }'; then
        echo "benchmark smoke failed: signal_storm allocs_per_op=${allocs:-missing} is not under 55" >&2
        exit 1
      fi
    fi
    # Ratchet against allocations creeping into the dense tick: an op
    # allocates ~29.2 times, all of it the scrapes' export (the tick
    # itself allocates nothing; ~33.6 when every export formatted the
    # per-PoP series names), and the count repeats exactly within a
    # seed.
    if [ "$workload" = tick_ixp_mix ] && [ "$trace" = 0 ]; then
      allocs=$(printf '%s' "$result" | sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p')
      if [ -z "$allocs" ] || ! awk -v a="$allocs" 'BEGIN { exit !(a < 33) }'; then
        echo "benchmark smoke failed: tick_ixp_mix allocs_per_op=${allocs:-missing} is not under 33" >&2
        exit 1
      fi
    fi
    # Ratchet against an O(NLRIs) RIB<->plane walk creeping back into
    # every watchdog pass: over 1 536 standing NLRIs one cost ~0.1 ms, a
    # pass that finds both sides' versions unmoved costs ~0.0001 ms.
    if [ "$workload" = flowspec_victims ] && [ "$trace" = 0 ]; then
      quiet=$(printf '%s' "$result" | sed -n 's/.*"quiet_pass_p50_ms": {"value": \([0-9.e-]*\).*/\1/p')
      if [ -z "$quiet" ] || ! awk -v q="$quiet" 'BEGIN { exit !(q < 0.02) }'; then
        echo "benchmark smoke failed: flowspec_victims quiet_pass_p50_ms=${quiet:-missing} is not under 0.02 ms" >&2
        exit 1
      fi
      # Ratchet against admission building things twice again: with
      # one-cube flag oracles and regions kept beside desired rules an
      # op allocates ~102 times; 256-byte flag oracles and an owner
      # table cloned and canonicalised per audit cost ~155, one
      # `Domain::canonical()` per proof on top of that ~167. The count
      # repeats exactly within a seed.
      allocs=$(printf '%s' "$result" | sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p')
      if [ -z "$allocs" ] || ! awk -v a="$allocs" 'BEGIN { exit !(a < 103) }'; then
        echo "benchmark smoke failed: flowspec_victims allocs_per_op=${allocs:-missing} is not under 103" >&2
        exit 1
      fi
    fi
  done
done

echo "All checks passed."
