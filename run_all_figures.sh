#!/bin/bash
# Regenerates every committed table/figure reproduction in results/.
# GCBFS_SOURCES controls sources per data point (paper: 140).
# Exits non-zero when any exhibit fails.
set -u
export GCBFS_SOURCES=${GCBFS_SOURCES:-6}
EXHIBITS="net_sweep table1_memory fig01_context fig05_edge_distribution fig06_threshold_sweep \
      fig07_suggested_thresholds fig08_options fig09_weak_scaling fig10_breakdown \
      fig11_strong_scaling fig12_friendster_distribution fig13_friendster_rate \
      table2_comparison wdc_longtail comm_model_scaling ablation_direction ext_pagerank_scaling \
      ext_async_comparison graph500_run"
failed=0
for e in $EXHIBITS; do
  echo "=== $e ==="
  if cargo run --release -q -p gcbfs-bench -- "$e" > "results/$e.txt" 2>&1; then
    echo "ok"
  else
    echo "FAILED"
    failed=1
  fi
done
exit $failed
