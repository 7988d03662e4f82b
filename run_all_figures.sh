#!/bin/bash
# Regenerates every committed exhibit in results/: each results/<name>.txt
# is the output of `gcbfs-bench <name>`, so the files present are the list.
# GCBFS_SOURCES controls sources per data point (paper: 140).
# Exits non-zero when any exhibit fails.
set -u
export GCBFS_SOURCES=${GCBFS_SOURCES:-6}
failed=0
for f in results/*.txt; do
  e=$(basename "$f" .txt)
  echo "=== $e ==="
  if cargo run --release -q -p gcbfs-bench -- "$e" > "$f" 2>&1; then
    echo "ok"
  else
    echo "FAILED"
    failed=1
  fi
done
exit $failed
