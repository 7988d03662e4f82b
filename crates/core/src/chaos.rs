//! The fault layer of the sim superstep loop: everything that exists only
//! because a [`FaultPlan`] is being injected.
//!
//! [`Chaos`] owns the injector, the checkpoint cadence, death detection
//! and re-homing (where a dead partition goes is the shared
//! [`RecoveryConfig::rehome`](crate::recovery::RecoveryConfig::rehome)
//! decision the proc coordinator also asks), the transient-fault retries
//! of the exchange and the mask reduction, and the SDC re-execute →
//! rollback → typed-error ladder. It commits as the proc round does, by
//! folding the group's delta onto a [`Store`]; every snapshot it restores
//! — the SDC shadow and the rollback checkpoint — is a sealed `Store`,
//! installed through the same verified [`Store::install`].
//! The driver holds it as an `Option`: without a plan none of this code
//! runs and nothing here is allocated. Every charge lands in
//! [`FaultStats`] and — with the *same* `f64`, at the same site, in the
//! same order — in the observability sink's fault spans.

use crate::checkpoint::{self, CheckpointCorrupt, Store};
use crate::comm::{reassign_lane_times, ExchangeResult};
use crate::config::BfsConfig;
use crate::driver::{DistributedGraph, RunError, Traversal};
use crate::kernels::{GpuWorker, LocalIterationOutput};
use crate::recovery::{
    retry_backoff, Assignment, ElasticMap, RecoveryMode, DETECTION_SECONDS, MAX_RETRIES,
};
use crate::stats::FaultStats;
use crate::verify::VerifyState;
use gcbfs_cluster::collectives::{allreduce_or_compressed, AllreduceOutcome};
use gcbfs_cluster::fault::{FaultError, FaultInjector, FaultPlan, SdcEvent, SdcMode, SdcSite};
use gcbfs_trace::{FaultKind, PhaseTimes, SinkMark};

/// Device-side shadow of the mutable superstep inputs, captured before
/// local computation when online verification is armed. Re-execution of a
/// superstep that failed verification restores from here without touching
/// the host checkpoint. The snapshot is the same sealed image a host
/// checkpoint holds, but modeled as free (device double-buffering of state
/// the kernels already traverse); only a *detected* fault charges recovery
/// time.
struct SdcShadow {
    state: Store,
    reference_held: bool,
    verify: VerifyState,
}

/// The resilience state of one fault-injected run.
pub(crate) struct Chaos<'a> {
    dist: &'a DistributedGraph,
    config: &'a BfsConfig,
    injector: FaultInjector,
    fault: FaultStats,
    /// The committed checkpoint, the rollback target; `None` until the
    /// commit entering iteration 0, which folds onto an all-unreached one.
    store: Option<Store>,
    /// Records committed with it, and its modeled restore time.
    cp_records: usize,
    cp_seconds: f64,
    /// Verification digests as of the checkpoint, restored with it.
    cp_verify: Option<VerifyState>,
    /// A rollback rewinds the sink to here: iteration events after this
    /// mark are vacated, fault spans are kept.
    sink_mark: Option<SinkMark>,
    /// How each dead member's partition is re-homed (hot spare or
    /// spread), and the spares still free.
    elastic: ElasticMap,
    /// `(dead, hosts)` of every spread-hosted partition this superstep;
    /// empty while nobody is degraded.
    hosted: Vec<(usize, Vec<(usize, f64)>)>,
    /// Static per-partition edge loads — the weights of the
    /// edge-balanced spreading plan.
    loads: Vec<u64>,
    /// Delegate-mask wire size — what spare absorption pays to
    /// re-replicate visited state.
    mask_bytes: u64,
    shadow: Option<SdcShadow>,
    /// SDC escalation ladder: failed-verification supersteps re-execute
    /// from the device shadow up to [`MAX_RETRIES`] times (persistent upsets
    /// refire and fail again), then roll back to the host checkpoint; a
    /// bounded number of verified rollbacks later the fault is surfaced as
    /// unrecoverable. Clean supersteps reset the re-execution rung but not
    /// the rollback rung.
    sdc_reexec_attempts: u32,
    sdc_rollbacks: u32,
}

/// A broken seal of a stored image, as a typed error at `iter`.
fn corrupt(iter: u32) -> impl Fn(CheckpointCorrupt) -> RunError {
    move |e| FaultError::CheckpointCorrupt { iteration: iter, gpu: e.gpu }.into()
}

/// Applies one depth-word SDC event to a GPU's local depth array (kernel
/// outputs or a restored checkpoint buffer). The strike index wraps into
/// the buffer and skips delegate-owned slots — those words are vacant by
/// construction, so an upset there corrupts nothing the algorithm reads.
fn strike_depths(dist: &DistributedGraph, depths: &mut [u32], ev: &SdcEvent) {
    let n = depths.len();
    let gpu = dist.topology.unflat(ev.gpu);
    let mut idx = (ev.index % n as u64) as usize;
    for _ in 0..n {
        if !dist.separation.is_delegate(dist.topology.global_id(gpu, idx as u32)) {
            depths[idx] = match ev.mode {
                SdcMode::Flip => depths[idx] ^ ev.bits as u32,
                SdcMode::Stuck => ev.bits as u32,
            };
            return;
        }
        idx = (idx + 1) % n;
    }
}

impl<'a> Chaos<'a> {
    pub fn new(
        dist: &'a DistributedGraph,
        config: &'a BfsConfig,
        plan: &FaultPlan,
        mask_bytes: u64,
    ) -> Self {
        let topo = dist.topology;
        Self {
            dist,
            config,
            injector: FaultInjector::new(plan.clone()),
            fault: FaultStats::default(),
            store: None,
            cp_records: 0,
            cp_seconds: 0.0,
            cp_verify: None,
            sink_mark: None,
            elastic: ElasticMap::new(topo.num_gpus() as usize, topo.num_spares() as usize),
            hosted: Vec::new(),
            loads: dist.subgraphs.iter().map(|sg| sg.num_edges().max(1)).collect(),
            mask_bytes,
            shadow: None,
            sdc_reexec_attempts: 0,
            sdc_rollbacks: 0,
        }
    }

    /// Charges `seconds` of recovery work, mirrored as a fault span.
    fn charge(&mut self, t: &mut Traversal, kind: FaultKind, at: u32, seconds: f64) {
        self.fault.recovery_seconds += seconds;
        if let Some(s) = t.sink.as_mut() {
            s.record_fault(kind, at, seconds);
        }
    }

    /// The superstep boundary: checkpoint cadence, then the deaths due
    /// here — every GPU that fail-stopped misses this barrier and is
    /// confirmed dead at it, as a proc worker whose connection closed is.
    /// They are re-homed, then one rollback (billed one
    /// [`DETECTION_SECONDS`]) covers them all. Returns true when the
    /// traversal was rewound and the loop must re-enter at `t.iter`.
    pub fn boundary(&mut self, t: &mut Traversal) -> Result<bool, RunError> {
        self.checkpoint_if_due(t);
        let at = t.iter;
        let mut dead = self.injector.deaths_due(at);
        dead.retain(|&gpu| !self.elastic.is_failed(gpu));
        if !dead.is_empty() {
            // Decide every death first (a fatal one rewinds nothing), then
            // one rollback covers them all, then each move is billed
            // against the restored state.
            let homes = dead
                .into_iter()
                .map(|gpu| self.rehome(gpu, at).map(|home| (gpu, home)))
                .collect::<Result<Vec<_>, _>>()?;
            self.rollback(t, DETECTION_SECONDS)?;
            for (gpu, home) in homes {
                self.charge_rehome(t, gpu, &home, at);
            }
            return Ok(true);
        }
        // Device shadow for verified re-execution: captured at the last
        // point the superstep inputs are known-clean.
        self.shadow = t.verify.as_ref().map(|vs| SdcShadow {
            state: Store::sealed(t.iter, t.group.capture()),
            reference_held: t.group.reference_held,
            verify: vs.clone(),
        });
        Ok(false)
    }

    /// Checkpoint cadence (before the deaths, so an iteration-0 fail-stop
    /// always has a rollback target): the group's delta since the last
    /// commit (or the seed) folds onto the store and commits, as a proc
    /// round commits saves. A re-entered iteration is not re-committed.
    fn checkpoint_if_due(&mut self, t: &mut Traversal) {
        let iter = t.iter;
        if !self.config.recovery.checkpoint_due(iter, self.store.as_ref().map(Store::iter)) {
            return;
        }
        let delta = t.group.delta(iter);
        let store = self.store.get_or_insert_with(|| {
            Store::unreached(&self.dist.topology, &self.dist.separation, delta.track_parents)
        });
        // The fold re-checks every GPU's seal. Only injected corruption (an
        // upset no online check caught, or a tampered store) leaves state
        // that is not the commit plus what settled since; a whole-image
        // copy writes that as it is.
        let images = delta.fold(store.iter(), store.images()).unwrap_or_else(|e| {
            let c = self.injector.counters();
            assert!(c.sdc_injected + c.checkpoint_corruptions > 0, "no fold at {iter}: {e}");
            t.group.capture()
        });
        store.commit(iter, images).expect("a group over the whole grid images every GPU");
        let cp_seconds = checkpoint::modeled_seconds(&t.group.workers, &self.config.cost);
        self.fault.checkpoint_seconds += cp_seconds;
        self.fault.checkpoints_taken += 1;
        // At-rest tamper hook: flip bits in the stored image *after* its
        // integrity seal is taken, so a later rollback's verification
        // catches the corruption instead of silently replaying poisoned
        // state.
        if let Some(cc) = self.injector.checkpoint_corruption(iter) {
            store.corrupt_mask_word(cc.gpu, cc.word, cc.xor);
        }
        (self.cp_records, self.cp_seconds) = (t.records.len(), cp_seconds);
        self.cp_verify = t.verify.clone();
        if let Some(s) = t.sink.as_mut() {
            s.record_fault(FaultKind::Checkpoint, iter, cp_seconds);
            self.sink_mark = Some(s.mark());
        }
    }

    /// Rolls the traversal back to the checkpoint — the one recipe behind
    /// both a confirmed fail-stop and rung 2 of the SDC ladder. Charges
    /// the work wasted since the checkpoint (`extra` adds time no record
    /// holds: the aborted superstep of an SDC rollback, or the detection
    /// of a death) plus restoring every GPU from host memory, and verifies
    /// the stored seals before replaying anything.
    fn rollback(&mut self, t: &mut Traversal, extra: f64) -> Result<(), RunError> {
        let wasted: f64 =
            t.records[self.cp_records..].iter().map(|r| r.timing.elapsed()).sum::<f64>() + extra;
        let spent = wasted + self.cp_seconds;
        self.fault.rollbacks += 1;
        t.records.truncate(self.cp_records);
        let store = self.store.as_ref().expect("committed entering iteration 0");
        t.group.restore(store).map_err(corrupt(t.iter))?;
        let resume_at = store.iter();
        // Restore-path SDC hook: strike the restored depth buffers *after*
        // the seal check passed, so online verification (not the seal)
        // must catch it on replay.
        self.strike_depth_buffers(t.iter, SdcSite::RestoreBuffer, &mut t.group.workers);
        t.verify = self.cp_verify.clone();
        self.fault.recovery_seconds += spent;
        if let Some(s) = t.sink.as_mut() {
            if let Some(m) = &self.sink_mark {
                s.truncate(m);
            }
            s.record_fault(FaultKind::Recovery, t.iter, spent);
        }
        t.iter = resume_at;
        Ok(())
    }

    /// Re-homes one dead partition where the shared
    /// [`RecoveryConfig::rehome`](crate::recovery::RecoveryConfig::rehome)
    /// decision says, returning its new assignment for billing. "A
    /// survivor remains" is the same predicate `plan_is_survivable`
    /// replays.
    fn rehome(&mut self, gpu: usize, at: u32) -> Result<Assignment, RunError> {
        let survivor = self.elastic.next_failure_is_survivable(gpu);
        match self.config.recovery.rehome(self.elastic.spare_free(), survivor) {
            Some(RecoveryMode::Spare) => self.elastic.fail_to_spare(gpu),
            Some(RecoveryMode::Spread) => self.elastic.fail_to_spread(gpu, &self.loads),
            None => return Err(FaultError::GpuFailed { gpu, iteration: at }.into()),
        }
        Ok(self.elastic.assignment(gpu).clone())
    }

    /// Bills moving `gpu`'s restored state to its new home. A spare
    /// reloads the graph partition from host storage, receives the
    /// checkpointed mutable state, and re-replicates the delegate masks
    /// via the usual collective; spread hosts each receive their share.
    fn charge_rehome(&mut self, t: &mut Traversal, gpu: usize, home: &Assignment, at: u32) {
        let topo = self.dist.topology;
        let net = self.config.cost.network;
        let bytes = checkpoint::worker_bytes(&t.group.workers[gpu]);
        match home {
            Assignment::Spare => {
                let absorb = self.dist.subgraphs[gpu].memory_usage().total() as f64
                    / net.staging_bandwidth
                    + net.p2p_time(bytes, false)
                    + net.allreduce_time(self.mask_bytes, topo.num_ranks(), true);
                self.fault.spare_absorptions += 1;
                self.charge(t, FaultKind::SpareAbsorb, at, absorb);
            }
            Assignment::Hosted(hosts) => {
                let same_rank = |host: usize| topo.same_rank(topo.unflat(gpu), topo.unflat(host));
                let ship: f64 = hosts
                    .iter()
                    .map(|&(host, share)| {
                        net.p2p_time((bytes as f64 * share).ceil() as u64, same_rank(host))
                    })
                    .sum();
                self.fault.spread_hostings += 1;
                self.charge(t, FaultKind::Spread, at, ship);
            }
            Assignment::SelfHosted => unreachable!("a re-homed partition is hosted elsewhere"),
        }
    }

    /// The NIC slowdown active this superstep (`>= 1`).
    pub fn bandwidth_factor(&self, iter: u32) -> f64 {
        self.injector.bandwidth_factor(iter)
    }

    /// Fires `site`'s armed depth-word events on the GPUs whose depth
    /// buffer is non-empty (others stay armed for a later step).
    fn strike_depth_buffers(&mut self, iter: u32, site: SdcSite, workers: &mut [GpuWorker]) {
        for ev in self.injector.sdc_events_where(iter, site, |ev| {
            workers.get(ev.gpu).is_some_and(|w| !w.depths_local.is_empty())
        }) {
            strike_depths(self.dist, &mut workers[ev.gpu].depths_local, &ev);
        }
    }

    /// Compute-SDC hooks: strike kernel-output depth words and the freshly
    /// built next-frontier lists. The flips land *after* the kernels ran —
    /// the model's stand-in for an in-kernel upset — and fire regardless
    /// of the verification tier, which is exactly what makes `Off`
    /// silently corruptible.
    pub fn strike_outputs(
        &mut self,
        iter: u32,
        workers: &mut [GpuWorker],
        outputs: &mut [LocalIterationOutput],
    ) {
        self.strike_depth_buffers(iter, SdcSite::KernelDepth, workers);
        for ev in self.injector.sdc_events_where(iter, SdcSite::FrontierDrop, |ev| {
            outputs.get(ev.gpu).is_some_and(|o| !o.next_frontier.is_empty())
        }) {
            let list = &mut outputs[ev.gpu].next_frontier;
            // An earlier drop in the same batch can have emptied this
            // list; with nothing left to drop the upset is masked (the
            // earlier one already broke conservation).
            if !list.is_empty() {
                list.remove((ev.index % list.len() as u64) as usize);
            }
        }
    }

    /// Degraded mode: hosts run their shares of dead members' partitions
    /// serially after their own, so the dead GPU's computation time moves
    /// onto its hosts share-weighted — `(p+1)/p` on the critical path.
    /// Spare-absorbed
    /// partitions run at full speed on their standby GPU and shift no
    /// time at all.
    pub fn degrade_compute(&mut self, phases: &mut [PhaseTimes]) {
        self.hosted = if self.elastic.any_failed() {
            self.elastic.hosted_pairs().map(|(g, h)| (g, h.to_vec())).collect()
        } else {
            Vec::new()
        };
        if self.hosted.is_empty() {
            return;
        }
        self.fault.degraded_iterations += 1;
        for (dead, hosts) in &self.hosted {
            let moved = std::mem::replace(&mut phases[*dead].computation, 0.0);
            for &(host, share) in hosts {
                phases[host].computation += moved * share;
            }
        }
    }

    /// Hosts also drive the dead members' communication lanes: their
    /// exchange time moves with the partition, share-weighted like the
    /// computation above (and the stage split moves with the lane it
    /// decomposes).
    pub fn degrade_exchange(&self, ex: &mut ExchangeResult) {
        for (dead, hosts) in &self.hosted {
            reassign_lane_times(&mut ex.local_time, &mut ex.remote_time, *dead, hosts);
            reassign_lane_times(&mut ex.encode_time, &mut ex.decode_time, *dead, hosts);
        }
    }

    /// The delegate-mask reduction under injection. Corrupted mask
    /// messages fail their checksum and the reduction is re-run (the
    /// corruption is one-shot, so the retry is clean); each discarded
    /// attempt plus its backoff is charged to recovery time. Then the
    /// reduction-SDC hook strikes the *combined* words after the transport
    /// checksums passed — a silent upset in the OR tree itself, invisible
    /// to the wire-level seals; only the ABFT cross-check can see it.
    pub fn reduce(
        &mut self,
        t: &mut Traversal,
        words: &[Vec<u64>],
        bw: f64,
    ) -> Result<AllreduceOutcome, RunError> {
        let (config, iter) = (self.config, t.iter);
        let mut attempt = 0u32;
        let mut outcome = loop {
            let mut attempt_words = words.to_vec();
            let corrupted = self.injector.corrupt_mask_words(iter, &mut attempt_words);
            let out = allreduce_or_compressed(
                self.dist.topology,
                &config.cost,
                &attempt_words,
                config.blocking_reduce,
                config.compression,
                t.group.mask_reference(config.compression),
            );
            let Some(gpu) = corrupted else { break out };
            if !config.recovery.enabled || attempt >= MAX_RETRIES {
                return Err(FaultError::MaskChecksumMismatch { iteration: iter, gpu }.into());
            }
            self.fault.retries += 1;
            let spent = out.global_time * bw + out.local_time + retry_backoff(attempt);
            self.charge(t, FaultKind::Retry, iter, spent);
            attempt += 1;
        };
        // Bits past `d` in the final word are padding the reduction never
        // materializes: an upset landing only there is provably masked and
        // does not count as fired.
        let tail = self.dist.separation.num_delegates() as usize % 64;
        let last = outcome.reduced.len().saturating_sub(1);
        let lane_of = |idx: usize| if idx == last && tail != 0 { (1u64 << tail) - 1 } else { !0 };
        let reduced = &mut outcome.reduced;
        for ev in self.injector.sdc_events_where(iter, SdcSite::ReducedMask, |ev| {
            if reduced.is_empty() {
                return false;
            }
            let idx = (ev.index % reduced.len() as u64) as usize;
            match ev.mode {
                SdcMode::Flip => ev.bits & lane_of(idx) != 0,
                SdcMode::Stuck => reduced[idx] != ev.bits & lane_of(idx),
            }
        }) {
            let idx = (ev.index % reduced.len() as u64) as usize;
            reduced[idx] = match ev.mode {
                SdcMode::Flip => reduced[idx] ^ (ev.bits & lane_of(idx)),
                SdcMode::Stuck => ev.bits & lane_of(idx),
            };
        }
        Ok(outcome)
    }

    /// Runs the exchange's delivery through the injector: every message of
    /// an attempt is sampled, and a drop leaves the per-peer ack counts
    /// short, so the whole exchange is retransmitted (resampling the fault
    /// stream); after [`MAX_RETRIES`] failed attempts the transport
    /// escalates to the verified reliable path, which always succeeds.
    /// Each failed attempt's transfer time plus its exponential backoff is
    /// charged to recovery time. On `Ok`, every update of `ex` is
    /// delivered once.
    pub fn deliver(
        &mut self,
        t: &mut Traversal,
        ex: &ExchangeResult,
        bw: f64,
    ) -> Result<(), RunError> {
        let enabled = self.config.recovery.enabled;
        let iter = t.iter;
        let worst_remote = ex.remote_time.iter().cloned().fold(0.0, f64::max) * bw;
        let mut attempt = 0u32;
        loop {
            if enabled && attempt >= MAX_RETRIES {
                return Ok(()); // reliable-path escalation
            }
            let mut lost = false;
            for (g, list) in ex.delivered.iter().enumerate() {
                for i in 0..list.len() as u64 {
                    lost |= self.injector.drops(iter, attempt, g as u64, i);
                }
            }
            if !lost {
                return Ok(());
            }
            if !enabled {
                return Err(FaultError::ExchangeMismatch {
                    iteration: iter,
                    attempts: attempt + 1,
                }
                .into());
            }
            self.fault.retries += 1;
            let spent = worst_remote + retry_backoff(attempt);
            self.charge(t, FaultKind::Retry, iter, spent);
            attempt += 1;
        }
    }

    /// A verification check fired on the fully formed superstep: vacate
    /// it (`elapsed` is its wasted modeled time) and climb the ladder. On
    /// `Ok` the traversal was rewound and the loop re-enters at `t.iter`.
    pub fn escalate(
        &mut self,
        t: &mut Traversal,
        check: &'static str,
        elapsed: f64,
    ) -> Result<(), RunError> {
        let iter = t.iter;
        self.fault.sdc_detections += 1;
        if let Some(s) = t.sink.as_mut() {
            // Zero-duration marker: the scan that caught it is already
            // charged to computation.
            s.record_fault(FaultKind::SdcDetect, iter, 0.0);
        }
        if !self.config.recovery.enabled {
            return Err(FaultError::SdcDetected { iteration: iter, check }.into());
        }
        if self.sdc_reexec_attempts < MAX_RETRIES {
            // Rung 1 — re-execute the superstep from the device shadow:
            // the whole aborted superstep plus a backoff is wasted time. A
            // transient upset will not refire; a persistent one climbs
            // the ladder.
            let spent = elapsed + retry_backoff(self.sdc_reexec_attempts);
            self.sdc_reexec_attempts += 1;
            self.fault.sdc_reexecutions += 1;
            self.charge(t, FaultKind::SdcReexecute, iter, spent);
            let snap = self.shadow.take().expect("shadow captured when verification is armed");
            snap.state.install(&mut t.group.workers).map_err(corrupt(iter))?;
            t.group.reference_held = snap.reference_held;
            t.verify = Some(snap.verify);
            return Ok(());
        }
        // Rung 2 — roll back to the host checkpoint. Bounded: a fault that
        // keeps striking through restored checkpoints is not recoverable
        // by replay.
        self.sdc_rollbacks += 1;
        if self.sdc_rollbacks > MAX_RETRIES {
            return Err(FaultError::SdcUnrecoverable { iteration: iter, check }.into());
        }
        self.rollback(t, elapsed)?;
        self.sdc_reexec_attempts = 0;
        Ok(())
    }

    /// A superstep passed verification: the re-execution rung resets.
    pub fn superstep_verified(&mut self) {
        self.sdc_reexec_attempts = 0;
    }

    /// The run's fault accounting, with the injector's counters folded in.
    pub fn finish(mut self) -> FaultStats {
        let c = self.injector.counters();
        self.fault.injected_drops = c.drops;
        self.fault.injected_corruptions = c.corruptions;
        self.fault.fail_stops = c.fail_stops;
        self.fault.injected_checkpoint_corruptions = c.checkpoint_corruptions;
        self.fault.injected_sdc = c.sdc_injected;
        self.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryConfig;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::rmat::RmatConfig;

    #[test]
    fn every_commit_of_a_fault_armed_run_is_the_capture_of_its_boundary() {
        // A checkpoint entering every superstep and a death in superstep 2,
        // so commits fold from the seed, from each commit, and from the
        // restore the rollback makes.
        let graph = RmatConfig::graph500(8).generate();
        let recovery = RecoveryConfig::default().with_checkpoint_interval(1);
        let config = BfsConfig::new(8).with_recovery(recovery);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let (sep, degrees) = (&dist.separation, graph.out_degrees());
        let by_degree = |delegate: bool| {
            let of_kind = |v: &u64| sep.delegate_id(*v).is_some() == delegate;
            (0..sep.num_vertices()).filter(of_kind).max_by_key(|&v| degrees[v as usize]).unwrap()
        };
        let plan = FaultPlan::new(0).with_fail_stop(1, 2);
        for source in [by_degree(true), by_degree(false)] {
            let mut t = Traversal::start(&dist, source, &config, false);
            let mut chaos = Chaos::new(&dist, &config, &plan, 0);
            let mut commits = Vec::new();
            while t.group.frontier_counts() != (0, 0) {
                let taken = chaos.fault.checkpoints_taken;
                let rolled_back = chaos.boundary(&mut t).unwrap();
                let store = chaos.store.as_ref().expect("committed entering iteration 0");
                if chaos.fault.checkpoints_taken > taken {
                    let at = store.iter();
                    assert_eq!(store.images(), t.group.capture(), "source {source}, commit {at}");
                    commits.push(at);
                }
                if rolled_back {
                    continue;
                }
                t.group.step(t.iter, &config);
                t.iter += 1;
            }
            assert_eq!(chaos.fault.rollbacks, 1, "source {source}");
            assert_eq!(commits, (0..t.iter).collect::<Vec<_>>(), "source {source}");
        }
    }
}
