//! The layer probe: re-drives the fault-free superstep from this file
//! through each layer's *public* functions, one span per call.
//!
//! The sequence is the one `DistributedGraph::run` and `procrt::worker`
//! already share: `GpuWorker::new` + seed → `run_iteration` fan-out →
//! `output_mask.differs_from` → `allreduce_or_compressed` →
//! `DelegateMask::from_words` + `consume_reduced_mask` →
//! `exchange_normals_with` → `recycle_output_mask` + `apply_remote_update`
//! → `assemble_depths`. Every probed op is compared with
//! `DistributedGraph::run` for the same source by the caller: a diverged
//! probe fails the run rather than reporting numbers about a different
//! computation. A `Superstep` engine or a change to these public
//! functions needs a `benchmark` issue to re-base this file.

use crate::spans::Recorder;
use gcbfs_cluster::collectives::allreduce_or_compressed;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::{decode_frontier_into, decode_mask_into, CodecCounts};
use gcbfs_core::assemble::{assemble_depths, GpuStateView};
use gcbfs_core::comm::{exchange_normals_with, message_path, prepare_sends, MessagePath};
use gcbfs_core::config::BfsConfig;
use gcbfs_core::direction::DirectionState;
use gcbfs_core::distributor::{distribute, EdgeClass, EdgeClassCounts};
use gcbfs_core::kernels::{GpuWorker, LocalIterationOutput};
use gcbfs_core::masks::DelegateMask;
use gcbfs_core::separation::Separation;
use gcbfs_core::subgraph::GpuSubgraphs;
use gcbfs_graph::EdgeList;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The distributed graph, built stage by stage through the same public
/// functions `DistributedGraph::build` calls, each stage timed.
pub struct StagedGraph {
    pub topo: Topology,
    pub separation: Separation,
    pub subgraphs: Vec<Arc<GpuSubgraphs>>,
    pub class_counts: EdgeClassCounts,
    pub num_vertices: u64,
    pub separation_s: f64,
    pub distribute_s: f64,
    pub subgraph_s: f64,
}

impl StagedGraph {
    pub fn build(graph: &EdgeList, degrees: &[u64], topo: Topology, config: &BfsConfig) -> Self {
        let t = Instant::now();
        let separation = Separation::from_degrees(degrees, config.degree_threshold);
        let separation_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let dist = distribute(graph, &separation, degrees, &topo);
        let distribute_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let d = separation.num_delegates();
        let subgraphs: Vec<Arc<GpuSubgraphs>> = topo
            .gpus()
            .collect::<Vec<_>>()
            .into_par_iter()
            .zip(dist.per_gpu.into_par_iter())
            .map(|(gpu, edges)| {
                let owned = topo.owned_count(gpu, graph.num_vertices);
                Arc::new(GpuSubgraphs::build(owned, d, &edges))
            })
            .collect();
        let subgraph_s = t.elapsed().as_secs_f64();

        Self {
            topo,
            separation,
            subgraphs,
            class_counts: dist.class_counts,
            num_vertices: graph.num_vertices,
            separation_s,
            distribute_s,
            subgraph_s,
        }
    }

    pub fn total_bytes(&self) -> u64 {
        self.subgraphs.iter().map(|sg| sg.memory_usage().total()).sum()
    }

    pub fn nn_edge_share_pct(&self) -> f64 {
        self.class_counts.percentage(EdgeClass::Nn)
    }
}

/// Exact counts of one probed op; they repeat bit for bit per seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounts {
    pub supersteps: u32,
    pub edges_examined: u64,
    pub mask_reductions: u32,
    pub mask_bytes: u64,
    pub nn_updates_sent: u64,
    pub nn_updates_before: u64,
    pub remote_bytes: u64,
    pub local_bytes: u64,
    pub codecs: CodecCounts,
}

/// What a *deep* op adds: the exchange's stages re-run one by one on
/// clones of the same sends and masks. These extra calls make a deep op
/// slower than the run it mirrors, so deep ops carry no op-level timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Deep {
    pub prepare_s: f64,
    pub frontier_encode_s: f64,
    pub frontier_decode_s: f64,
    pub frontier_raw_bytes: u64,
    pub frontier_encoded_bytes: u64,
    pub mask_codec_s: f64,
    pub mask_raw_bytes: u64,
    pub mask_encoded_bytes: u64,
}

pub struct ProbedOp {
    pub depths: Vec<u32>,
    pub counts: OpCounts,
}

/// One BFS from `source`, driven from here. With `deep`, additionally
/// times the exchange's stages on clones.
pub fn probe_op(
    staged: &StagedGraph,
    config: &BfsConfig,
    source: u64,
    rec: &mut Recorder,
    mut deep: Option<&mut Deep>,
) -> ProbedOp {
    let topo = staged.topo;
    let cost = &config.cost;
    let d = staged.separation.num_delegates();
    let mut counts = OpCounts::default();

    let op_span = rec.enter("op");
    let span = rec.enter("driver.init");
    let mut workers: Vec<GpuWorker> = topo
        .gpus()
        .enumerate()
        .map(|(flat, gpu)| {
            let mut w = GpuWorker::new(
                gpu,
                Arc::clone(&staged.subgraphs[flat]),
                DirectionState::new(config.dd_factors, config.direction_optimization),
                DirectionState::new(config.dn_factors, config.direction_optimization),
                DirectionState::new(config.nd_factors, config.direction_optimization),
            );
            w.per_kernel_direction = config.per_kernel_direction;
            w.kernel_variant = config.kernel_variant;
            w
        })
        .collect();
    if let Some(did) = staged.separation.delegate_id(source) {
        let mut seed = DelegateMask::new(d);
        seed.set(did);
        workers.par_iter_mut().for_each(|w| w.consume_reduced_mask(&seed, 0));
    } else {
        let w = &mut workers[topo.flat(topo.vertex_owner(source))];
        let slot = topo.local_index(source);
        w.depths_local[slot as usize] = 0;
        w.frontier.push(slot);
    }
    rec.exit(span);

    let mut prev_reduced: Option<Vec<u64>> = None;
    let mut iter = 0u32;
    loop {
        let frontier_len: usize = workers.iter().map(|w| w.frontier.len()).sum();
        if frontier_len == 0 && workers[0].new_delegates.is_empty() {
            break;
        }
        let step_span = rec.enter("superstep");
        let next_depth = iter + 1;

        let span = rec.enter("kernels.visit");
        let mut outputs: Vec<LocalIterationOutput> =
            workers.par_iter_mut().map(|w| w.run_iteration(iter, &topo)).collect();
        rec.exit(span);
        counts.edges_examined += outputs.iter().map(|o| o.work.total_edges()).sum::<u64>();

        let mask_changed = d > 0
            && outputs
                .iter()
                .zip(&workers)
                .any(|(o, w)| o.output_mask.differs_from(&w.visited_mask));
        if mask_changed {
            let words: Vec<Vec<u64>> =
                outputs.iter().map(|o| o.output_mask.words().to_vec()).collect();
            let span = rec.enter("collectives.mask_reduce");
            let outcome = allreduce_or_compressed(
                topo,
                cost,
                &words,
                config.blocking_reduce,
                config.compression,
                prev_reduced.as_deref(),
            );
            rec.exit(span);
            counts.mask_reductions += 1;
            if topo.num_ranks() > 1 {
                counts.mask_bytes += 2 * outcome.bytes_per_message * topo.num_ranks() as u64;
            }
            counts.codecs.merge(&outcome.codec_counts);
            if let Some(deep) = deep.as_deref_mut() {
                time_mask_codec(config, prev_reduced.as_deref(), &outcome.reduced, deep);
            }
            if config.compression.is_on() {
                prev_reduced = Some(outcome.reduced.clone());
            }
            let span = rec.enter("kernels.mask_consume");
            let reduced = DelegateMask::from_words(d, outcome.reduced);
            workers.par_iter_mut().for_each(|w| w.consume_reduced_mask(&reduced, next_depth));
            rec.exit(span);
        }

        let sends: Vec<Vec<(GpuId, u32)>> =
            outputs.iter_mut().map(|o| std::mem::take(&mut o.remote_nn)).collect();
        if let Some(deep) = deep.as_deref_mut() {
            time_exchange_stages(&topo, config, sends.clone(), deep);
        }
        let span = rec.enter("comm.exchange");
        let mut ex = exchange_normals_with(
            &topo,
            cost,
            sends,
            config.local_all2all,
            config.uniquify,
            config.compression,
        );
        rec.exit(span);
        counts.nn_updates_sent += ex.items_sent;
        counts.nn_updates_before += ex.items_before;
        counts.remote_bytes += ex.remote_bytes;
        counts.local_bytes += ex.local_bytes;
        counts.codecs.merge(&ex.codec_counts);

        let span = rec.enter("kernels.commit");
        let delivered = std::mem::take(&mut ex.delivered);
        for ((w, out), arrived) in workers.iter_mut().zip(&mut outputs).zip(&delivered) {
            w.frontier = std::mem::take(&mut out.next_frontier);
            w.recycle_output_mask(std::mem::replace(&mut out.output_mask, DelegateMask::new(0)));
            for &slot in arrived {
                if let Some(s) = w.apply_remote_update(slot, next_depth) {
                    w.frontier.push(s);
                }
            }
        }
        rec.exit(span);

        rec.exit(step_span);
        iter += 1;
    }
    counts.supersteps = iter;

    let span = rec.enter("assemble.depths");
    let views: Vec<GpuStateView<'_>> = workers.iter().map(GpuStateView::of_worker).collect();
    let depths = assemble_depths(&topo, &staged.separation, staged.num_vertices, &views);
    rec.exit(span);
    rec.exit(op_span);
    ProbedOp { depths, counts }
}

/// `prepare_sends` on a clone of the sends, then every cross-rank message
/// (grouped as `message_path` routes them) through the codec the mode
/// picks, encode and decode timed apart.
fn time_exchange_stages(
    topo: &Topology,
    config: &BfsConfig,
    sends: Vec<Vec<(GpuId, u32)>>,
    deep: &mut Deep,
) {
    let t = Instant::now();
    let prep = prepare_sends(topo, sends, config.local_all2all, config.uniquify);
    deep.prepare_s += t.elapsed().as_secs_f64();
    if !config.compression.is_on() {
        return;
    }
    let p = topo.num_gpus() as usize;
    let mut by_dest: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    for (g, held) in prep.held.into_iter().enumerate() {
        for (dest, slot) in held {
            by_dest[topo.flat(dest)].push(slot);
        }
        for (dflat, slots) in by_dest.iter_mut().enumerate() {
            if !slots.is_empty() && message_path(topo, g, dflat, true) == MessagePath::Compressed {
                slots.sort_unstable();
                encoded.clear();
                decoded.clear();
                let t = Instant::now();
                let codec = config.compression.frontier_codec(slots).expect("compression is on");
                codec.encode_into(slots, &mut encoded).expect("sorted input encodes");
                deep.frontier_encode_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                decode_frontier_into(&encoded, &mut decoded).expect("own encoding decodes");
                deep.frontier_decode_s += t.elapsed().as_secs_f64();
                assert_eq!(&decoded, slots, "frontier codec roundtrip");
                deep.frontier_raw_bytes += 4 * slots.len() as u64;
                deep.frontier_encoded_bytes += encoded.len() as u64;
            }
            slots.clear();
        }
    }
}

/// The op's reduced mask against the previous one through the mask codec
/// the mode picks.
fn time_mask_codec(config: &BfsConfig, prev: Option<&[u64]>, reduced: &[u64], deep: &mut Deep) {
    let Some(codec) = config.compression.mask_codec(prev, reduced) else {
        return;
    };
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    let t = Instant::now();
    codec.encode_into(prev, reduced, &mut encoded).expect("mask encodes");
    decode_mask_into(&encoded, prev, &mut decoded).expect("own encoding decodes");
    deep.mask_codec_s += t.elapsed().as_secs_f64();
    assert_eq!(decoded, reduced, "mask codec roundtrip");
    deep.mask_raw_bytes += 8 * reduced.len() as u64;
    deep.mask_encoded_bytes += encoded.len() as u64;
}
