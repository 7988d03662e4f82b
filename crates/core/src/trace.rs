//! Human-readable per-iteration traces of a BFS run.
//!
//! Formats the [`RunStats`](crate::stats::RunStats) records as the kind of
//! table the paper's own discussion walks through: frontier sizes, kernel
//! directions, workloads, communication volumes, and the four-phase
//! timing. Used by the `gcbfs bfs --trace` CLI flag and handy when tuning
//! `TH` or the switching factors.

use crate::driver::BfsResult;
use crate::stats::IterationRecord;
use std::fmt;

/// Wrapper that renders a full run as a per-iteration table.
pub struct RunTrace<'a>(pub &'a BfsResult);

/// One row of the trace (record + cluster GPU count for the direction
/// column).
struct Row<'a>(&'a IterationRecord, u32);

impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        let dirs = format!(
            "{}{}{}",
            dir_char(r.backward_gpus.0, self.1),
            dir_char(r.backward_gpus.1, self.1),
            dir_char(r.backward_gpus.2, self.1),
        );
        write!(
            f,
            "{:>4} {:>10} {:>8} {:>4} {:>11} {:>11} {:>9} {:>5} {:>9.3} {:>9.3}",
            r.iter,
            r.frontier_len,
            r.new_delegates,
            dirs,
            r.work.total_edges(),
            r.nn_updates_sent,
            r.remote_bytes,
            if r.mask_reduced { "yes" } else { "-" },
            r.timing.phases.computation * 1e3,
            r.timing.elapsed() * 1e3,
        )
    }
}

/// `F` all-forward, `B` all-backward, `m` mixed across GPUs.
///
/// With per-kernel, per-GPU direction decisions the GPUs of one iteration
/// can legitimately disagree; collapsing any nonzero backward count to `B`
/// (the old rendering) hid that.
fn dir_char(backward_gpus: u32, total_gpus: u32) -> char {
    if backward_gpus == 0 {
        'F'
    } else if backward_gpus >= total_gpus {
        'B'
    } else {
        'm'
    }
}

impl fmt::Display for RunTrace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = &self.0.stats;
        writeln!(
            f,
            "{:>4} {:>10} {:>8} {:>4} {:>11} {:>11} {:>9} {:>5} {:>9} {:>9}",
            "iter",
            "frontier",
            "newdeleg",
            "dirs",
            "edges",
            "nn sent",
            "rbytes",
            "mask",
            "comp(ms)",
            "elap(ms)",
        )?;
        for rec in &stats.records {
            writeln!(f, "{}", Row(rec, stats.num_gpus))?;
        }
        writeln!(
            f,
            "S = {} iterations (S' = {} with mask reductions); modeled {:.3} ms; \
             {} edges examined; {} remote bytes",
            stats.iterations(),
            stats.mask_reductions(),
            stats.modeled_elapsed() * 1e3,
            stats.total_edges_examined(),
            stats.total_remote_bytes(),
        )?;
        // Only compressed runs get the codec summary — Off-mode traces
        // render exactly as they did before the compression subsystem.
        if stats.codec_totals().frontier_total() + stats.codec_totals().mask_total() > 0 {
            writeln!(
                f,
                "compression: {} bytes saved (ratio {:.3}); codec {:.3} ms; \
                 frontier trajectory {}",
                stats.total_bytes_saved(),
                stats.compression_ratio(),
                stats.total_codec_seconds() * 1e3,
                compression_trajectory(self.0),
            )?;
        }
        Ok(())
    }
}

/// Summarizes which frontier codec dominated each iteration's nn-exchange:
/// `'R'` raw32, `'V'` varint-delta, `'B'` bitmap, `'-'` when the iteration
/// sent nothing cross-rank (or compression was off). Reads like the
/// direction trajectories: the sparse→dense→sparse frontier arc shows up
/// as `-VBBV-`-shaped strings.
pub fn compression_trajectory(result: &BfsResult) -> String {
    result.stats.records.iter().map(|r| r.codec_counts.dominant_frontier_char()).collect()
}

/// Summarizes the direction trajectory of one kernel across iterations:
/// e.g. `"FFBBB"` — the paper's "once the traversal switches to the
/// backward direction, it does not need to change back" is visible as a
/// single F→B transition.
pub fn direction_trajectory(result: &BfsResult, kernel: Kernel) -> String {
    result
        .stats
        .records
        .iter()
        .map(|r| {
            let backward = match kernel {
                Kernel::Dd => r.backward_gpus.0,
                Kernel::Dn => r.backward_gpus.1,
                Kernel::Nd => r.backward_gpus.2,
            };
            dir_char(backward, result.stats.num_gpus)
        })
        .collect()
}

/// Which DO kernel a trajectory refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// delegate → delegate.
    Dd,
    /// delegate → normal.
    Dn,
    /// normal → delegate.
    Nd,
}

/// True when a trajectory follows the paper's RMAT pattern: forward for
/// zero or more iterations, optionally mixed while the GPUs cross over at
/// different iterations, then backward for the rest — `F* m* B*`, one
/// logical forward→backward transition.
pub fn is_single_switch(trajectory: &str) -> bool {
    let rest = trajectory.trim_start_matches('F');
    let rest = rest.trim_start_matches('m');
    rest.chars().all(|c| c == 'B')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use crate::driver::DistributedGraph;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::rmat::RmatConfig;

    fn run() -> BfsResult {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let src = graph.hub().unwrap();
        dist.run(src, &config).unwrap()
    }

    #[test]
    fn trace_renders_every_iteration() {
        let r = run();
        let text = format!("{}", RunTrace(&r));
        // Header + one row per iteration + summary line.
        assert_eq!(text.lines().count(), 2 + r.iterations() as usize);
        assert!(text.contains("S = "));
        assert!(text.contains("edges examined"));
    }

    #[test]
    fn compressed_trace_adds_a_codec_summary() {
        use gcbfs_compress::CompressionMode;
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_compression(CompressionMode::Adaptive);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let src = graph.hub().unwrap();
        let r = dist.run(src, &config).unwrap();
        let text = format!("{}", RunTrace(&r));
        assert_eq!(text.lines().count(), 3 + r.iterations() as usize);
        assert!(text.contains("compression: "));
        assert!(text.contains("frontier trajectory"));
        let t = compression_trajectory(&r);
        assert_eq!(t.len(), r.iterations() as usize);
        assert!(t.chars().all(|c| "RVB-".contains(c)));
        assert!(t.chars().any(|c| c != '-'), "some iteration compressed a frontier: {t}");
    }

    #[test]
    fn uncompressed_trajectory_is_all_dashes() {
        let r = run();
        let t = compression_trajectory(&r);
        assert_eq!(t.len(), r.iterations() as usize);
        assert!(t.chars().all(|c| c == '-'), "Off mode records no codecs: {t}");
    }

    #[test]
    fn trajectories_have_run_length() {
        let r = run();
        for k in [Kernel::Dd, Kernel::Dn, Kernel::Nd] {
            let t = direction_trajectory(&r, k);
            assert_eq!(t.len(), r.iterations() as usize);
            assert!(t.chars().all(|c| c == 'F' || c == 'B' || c == 'm'), "{t}");
        }
    }

    #[test]
    fn dir_char_renders_mixed_directions() {
        // 0 backward GPUs: forward. All backward: B. In between: mixed.
        assert_eq!(dir_char(0, 4), 'F');
        assert_eq!(dir_char(4, 4), 'B');
        assert_eq!(dir_char(1, 4), 'm');
        assert_eq!(dir_char(3, 4), 'm');
        // Legacy hand-built stats (num_gpus == 0): any nonzero count is B.
        assert_eq!(dir_char(0, 0), 'F');
        assert_eq!(dir_char(2, 0), 'B');
    }

    #[test]
    fn rmat_kernels_switch_at_most_once() {
        // §VI-B: "For RMAT, once the traversal switches to the backward
        // direction, it does not need to change back."
        let r = run();
        for k in [Kernel::Dd, Kernel::Dn, Kernel::Nd] {
            let t = direction_trajectory(&r, k);
            assert!(is_single_switch(&t), "kernel {k:?} trajectory {t}");
        }
    }

    #[test]
    fn switch_counting() {
        assert!(is_single_switch("FFB"));
        assert!(is_single_switch("FFFF"));
        assert!(is_single_switch("BBB"));
        assert!(!is_single_switch("FBF"));
        // Mixed iterations sit inside the one crossover window.
        assert!(is_single_switch("FFmBB"));
        assert!(is_single_switch("FmmB"));
        assert!(is_single_switch("mB"));
        assert!(is_single_switch(""));
        // ...but not after the traversal has gone backward, or F after m.
        assert!(!is_single_switch("FBmB"));
        assert!(!is_single_switch("FmF"));
        assert!(!is_single_switch("BF"));
    }
}
