//! The coordinator's round without sockets: every protocol decision of a
//! proc-backend run, and nothing about processes.
//!
//! A [`Round`] holds one run's state — who hosts which GPUs, each worker's
//! latest frontier counts, the checkpoint store — and drives the run
//! sequence of the frame table in [`super::protocol`]: `Begin` → `Ready`,
//! the superstep loop (`StepGo`, the `route` relay, `StepRemote`) and its
//! termination, the checkpoint cadence with staging and commit, recovery
//! (the [`RecoveryConfig::rehome`] decision, placement and one more
//! `Begin` round), and `Finish` with the assembly of depths and parents.
//!
//! It reaches the workers only through a [`Link`]: send a typed message to
//! a slot, hear the next worker frame or a confirmed death, and replace a
//! dead slot's worker. The socket pool in `coordinator.rs` is the link of a
//! real run; it owns the processes, the death rule (a worker whose
//! connection closed is dead), the chaos kill and the traffic counts. A
//! test's link runs [`WorkerRound`](super::worker::WorkerRound)s in
//! process, so this same round runs there, under any schedule the test
//! chooses.
//!
//! `Begin` is the run's committed iteration-0 checkpoint: the state
//! entering superstep 0 follows from the source alone, so
//! [`RecoveryConfig::checkpoint_due`] asks for no save there; the store
//! entering it holds an all-unreached (unsealed) image per GPU. A worker's
//! save is a [`StateDelta`] since its last `Begin` or save, whose base must
//! be the commit: the round folds it onto the committed images, the fold
//! must reproduce the seal the worker took, and the whole images are
//! staged. An image checkpoint is the run's only copy: it commits once
//! every GPU's image for its iteration was staged, so a death racing the
//! capture falls back to the previous commit. The final state folds the
//! same way before assembly. Recovery has one path, whenever the death
//! and wherever its GPUs go: re-home them, send every live worker a `Begin`
//! naming the GPUs it hosts from then on (with their committed images as a
//! delta from iteration 0, once there are any), and resume at the commit.
//! [`ProcReport::checkpoints`] counts image commits; `Begin` is not one.

use super::protocol::{kind, Exchange, Msg, ProtocolError, Stats};
use super::{ProcError, ProcReport, RecoveryReport};
use crate::assemble::{assemble_depths, assemble_parents, GpuStateView};
use crate::checkpoint::{GpuStateImage, StateDelta};
use crate::recovery::{RecoveryConfig, RecoveryMode};
use crate::separation::Separation;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::Frame;
use gcbfs_graph::VertexId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`Round`] reaches its workers, one per slot.
pub trait Link {
    /// Sends `msg` to `slot`'s worker. A worker that does not get it is
    /// reported dead by [`Self::next`] in time, so a send never fails.
    fn send(&mut self, slot: usize, msg: &Msg<'_>);

    /// Waits until `deadline` for the next data frame from a worker or a
    /// confirmed death; `None` once the deadline passed.
    ///
    /// # Errors
    /// A failure the link cannot carry on past.
    fn next(&mut self, deadline: Instant) -> Result<Option<Heard>, ProcError>;

    /// Puts a fresh worker in the dead `slot`, set up and waiting for
    /// `Begin` (a spare).
    ///
    /// # Errors
    /// The replacement could not be started.
    fn replace(&mut self, slot: usize) -> Result<(), ProcError>;
}

/// What a [`Link`] heard.
#[derive(Debug)]
pub enum Heard {
    /// A data frame, as it came off the wire, from a slot's worker.
    Frame(usize, Frame),
    /// A worker was confirmed dead.
    Dead(Death),
}

/// A confirmed death.
#[derive(Clone, Copy, Debug)]
pub struct Death {
    /// The dead worker's slot.
    pub slot: usize,
    /// Seconds from the death to its confirmation, when the link knows when
    /// it died (a chaos kill); else 0.
    pub detect_seconds: f64,
}

/// The assembled result of a run.
#[derive(Clone, Debug)]
pub struct ProcOutcome {
    /// Global BFS depths, bit-exact with the sim backend.
    pub depths: Vec<u32>,
    /// The Graph500 parent tree, when requested.
    pub parents: Option<Vec<u64>>,
    /// The run's telemetry; a [`Round`] fills the workers, supersteps,
    /// duplicates, checkpoints and the recovery, its link the rest.
    pub report: ProcReport,
}

/// How a collective round ended: `None` once every pending slot answered,
/// or the death confirmed first.
type Collected = Result<Option<Death>, ProcError>;

/// One run's coordinator round over a [`Link`]: [`Self::begin`], then
/// [`Self::traverse`].
pub struct Round {
    topo: Topology,
    /// The degree classification every worker computes too; assembly reuses
    /// it.
    separation: Arc<Separation>,
    source: VertexId,
    track_parents: bool,
    /// Checkpoint cadence and the re-homing decision.
    recovery: RecoveryConfig,
    step_timeout: Duration,
    /// Per slot, the counts of its last `Ready` or `StepDone`; `None` once
    /// it died, until a spare takes its place.
    stats: Vec<Option<Stats>>,
    /// Flat GPU -> hosting slot.
    hosting_of: Vec<usize>,
    /// The superstep in progress, which a stall or a death is reported at;
    /// the last one while the final state is collected.
    iter: u32,
    /// The committed checkpoint: its iteration, and one sealed image per
    /// GPU indexed by flat — at iteration 0, where `Begin` seeds the
    /// source, an all-unreached one, never shipped and left unsealed.
    /// Deltas fold onto it.
    cp_iter: u32,
    cp_store: Vec<GpuStateImage>,
    /// Uncommitted saves: iter -> gpu_flat -> image.
    staged: HashMap<u32, HashMap<u32, GpuStateImage>>,
    spares_left: u32,
    report: ProcReport,
}

impl Round {
    /// A run from `source` on `topo` whose slot `s` hosts the flat GPUs
    /// `hosted[s]`, recovering by `recovery` from the topology's spares and
    /// waiting at most `step_timeout` for any one collective round.
    pub fn new(
        topo: Topology,
        separation: Arc<Separation>,
        hosted: &[Vec<usize>],
        source: VertexId,
        track_parents: bool,
        recovery: RecoveryConfig,
        step_timeout: Duration,
    ) -> Self {
        let mut hosting_of = vec![0; topo.num_gpus() as usize];
        for (slot, flats) in hosted.iter().enumerate() {
            flats.iter().for_each(|&f| hosting_of[f] = slot);
        }
        let report = ProcReport { workers: hosted.len() as u32, ..ProcReport::default() };
        let (n, d) = (separation.num_vertices(), separation.num_delegates());
        let cp_store = (0..topo.num_gpus())
            .map(|f| {
                let num_local = topo.owned_count(topo.unflat(f as usize), n);
                GpuStateImage::unreached(f, num_local, d, track_parents)
            })
            .collect();
        Self {
            topo,
            separation,
            source,
            track_parents,
            recovery,
            step_timeout,
            stats: vec![Some(Stats::default()); hosted.len()],
            hosting_of,
            iter: 0,
            cp_iter: 0,
            cp_store,
            staged: HashMap::new(),
            spares_left: topo.num_spares(),
            report,
        }
    }

    /// Starts the traversal on every worker (`Begin` → `Ready`). A death
    /// before `Ready` is recovered like one in a superstep.
    ///
    /// # Errors
    /// As [`Self::traverse`].
    pub fn begin(&mut self, link: &mut impl Link) -> Result<(), ProcError> {
        let mut owed = Vec::new();
        if let Some(death) = self.begin_on(link, &mut owed)? {
            self.recover(link, death, owed)?;
        }
        Ok(())
    }

    /// Runs supersteps until the global frontier drains, recovering the
    /// deaths the policy allows, then collects every worker's final state
    /// and assembles depths (and parents, when tracked).
    ///
    /// # Errors
    /// `StepTimeout` when a collective round misses its deadline,
    /// `Unrecoverable` for a death with no recovery path, and `Protocol`
    /// for a malformed or out-of-contract worker frame.
    pub fn traverse(mut self, link: &mut impl Link) -> Result<ProcOutcome, ProcError> {
        let mut iter = 0u32;
        loop {
            let live = || self.stats.iter().flatten();
            let frontier: u64 = live().map(|s| s.frontier).sum();
            let new_delegates = live().map(|s| s.new_delegates).max().unwrap_or(0);
            if frontier == 0 && new_delegates == 0 {
                break;
            }
            self.iter = iter;
            iter = match self.superstep(link, iter)? {
                Some(death) => self.recover(link, death, Vec::new())?,
                None => iter + 1,
            };
        }
        self.report.iterations = iter;
        self.finish(link)
    }

    /// Sends every live slot its `Begin` from the committed checkpoint —
    /// the GPUs it hosts and, past iteration 0, their images as a delta
    /// from iteration 0 — and gathers
    /// a `Ready` from each. `owed` lists the slots whose `Ready` to an
    /// interrupted `Begin` round is still on its way, ahead of this one's:
    /// those are gathered too, so the later one counts. On a death, `owed`
    /// is left with the `Ready`s still due.
    fn begin_on(&mut self, link: &mut impl Link, owed: &mut Vec<usize>) -> Collected {
        let live = self.alive_slots();
        for &slot in &live {
            let hosted = self.hosted(slot);
            let resume = (self.cp_iter > 0).then(|| {
                let gpus: Vec<_> = hosted.iter().map(|&f| (self.cp_store[f].fields(), 0)).collect();
                StateDelta::of(0, self.cp_iter, self.track_parents, &gpus)
            });
            link.send(slot, &Msg::Begin { source: self.source, hosted, resume });
        }
        owed.extend(live);
        self.gather(link, owed, kind::READY, self.cp_iter, Self::record_stats)
    }

    /// The one collection loop: waits until every entry of `pending` is
    /// matched by one `accept`-kind frame of iteration `iter` (or of none,
    /// for a kind that carries none) from its slot, in order, and hands
    /// each to `on`, within one step timeout. On the way it stages
    /// checkpoint saves; any other frame is stale — a survivor's from a
    /// superstep a recovery aborted, or a dead slot's — and skipped.
    /// Returns the first death confirmed instead, if any, with `pending`
    /// left holding the entries not yet matched.
    ///
    /// # Errors
    /// `StepTimeout` at the deadline, at the run's superstep; a malformed
    /// or out-of-contract frame; what `on` returns.
    fn gather<L: Link>(
        &mut self,
        link: &mut L,
        pending: &mut Vec<usize>,
        accept: u8,
        iter: u32,
        mut on: impl FnMut(&mut Self, usize, Msg<'_>) -> Result<(), ProcError>,
    ) -> Collected {
        let deadline = Instant::now() + self.step_timeout;
        while !pending.is_empty() {
            let (slot, frame) = match link.next(deadline)? {
                None => return Err(ProcError::StepTimeout { iter: self.iter }),
                Some(Heard::Dead(death)) => return Ok(Some(death)),
                Some(Heard::Frame(slot, frame)) => (slot, frame),
            };
            if self.stats[slot].is_none() {
                continue;
            }
            let at = pending.iter().position(|&s| s == slot);
            match Msg::decode(&frame, Some(&self.topo))? {
                Msg::CheckpointSave(delta) => self.stage_checkpoint(slot, &delta)?,
                msg if frame.kind == accept && msg.iter().is_none_or(|i| i == iter) => {
                    if let Some(at) = at {
                        pending.remove(at);
                        on(self, slot, msg)?;
                    }
                }
                _ => {}
            }
        }
        Ok(None)
    }

    /// Records a slot's frontier statistics (`Ready`, `StepDone`).
    fn record_stats(&mut self, slot: usize, msg: Msg<'_>) -> Result<(), ProcError> {
        if let Msg::Ready(s) | Msg::StepDone(s) = msg {
            self.stats[slot] = Some(s);
        }
        Ok(())
    }

    /// Folds one worker's checkpoint delta onto the committed store and
    /// stages the images; commits the checkpoint once every flat GPU's
    /// image for that iteration was staged. A stale save from an aborted
    /// superstep covers a subset of the sender's GPUs, and may be heard
    /// after the recovery began: its images are the replay's, so it stages
    /// like any other. A save at or before the commit is skipped — a stale
    /// save's images and the replayed ones may have committed it already.
    ///
    /// # Errors
    /// A delta of a GPU the sender does not host, or one past the commit
    /// that does not fold ([`StateDelta::fold`]); nothing is staged then.
    fn stage_checkpoint(&mut self, slot: usize, delta: &StateDelta) -> Result<(), ProcError> {
        check_hosts(&self.hosting_of, slot, delta.gpus.iter().map(|g| g.gpu_flat), "saved")?;
        if delta.iter <= self.cp_iter {
            return Ok(());
        }
        let images = delta.fold(self.cp_iter, &self.cp_store)?;
        let p = self.topo.num_gpus() as usize;
        let entry = self.staged.entry(delta.iter).or_default();
        entry.extend(images.into_iter().map(|img| (img.gpu_flat, img)));
        if entry.len() == p {
            let images = self.staged.remove(&delta.iter).expect("staged entry exists");
            let mut images: Vec<_> = images.into_values().collect();
            images.sort_unstable_by_key(|img| img.gpu_flat);
            self.cp_store = images;
            self.cp_iter = delta.iter;
            self.staged.retain(|&i, _| i > delta.iter);
            self.report.checkpoints += 1;
        }
        Ok(())
    }

    fn alive_slots(&self) -> Vec<usize> {
        (0..self.stats.len()).filter(|&s| self.stats[s].is_some()).collect()
    }

    /// The flat GPUs `slot` hosts, ascending.
    fn hosted(&self, slot: usize) -> Vec<usize> {
        (0..self.hosting_of.len()).filter(|&f| self.hosting_of[f] == slot).collect()
    }

    /// One superstep. `Ok(None)` means it committed; `Ok(Some(death))`
    /// that a death confirmed first aborted it.
    fn superstep(&mut self, link: &mut impl Link, iter: u32) -> Collected {
        let checkpoint = self.recovery.checkpoint_due(iter, Some(self.cp_iter));
        let go = Msg::StepGo { iter, checkpoint };
        self.alive_slots().into_iter().for_each(|slot| link.send(slot, &go));

        let mut locals = vec![None; self.stats.len()];
        let dead =
            self.gather(link, &mut self.alive_slots(), kind::STEP_LOCAL, iter, |_, slot, msg| {
                if let Msg::StepLocal(x) = msg {
                    let contributions = Cow::Owned(x.contributions.into_owned());
                    locals[slot] = Some(Exchange { iter, contributions, blocks: x.blocks });
                }
                Ok(())
            })?;
        if dead.is_some() {
            return Ok(dead);
        }
        let remotes = route(&self.topo, &self.hosting_of, iter, locals)?.into_iter().enumerate();
        for (slot, remote) in remotes.filter_map(|(slot, x)| Some((slot, x?))) {
            link.send(slot, &Msg::StepRemote(remote));
        }
        self.gather(link, &mut self.alive_slots(), kind::STEP_DONE, iter, Self::record_stats)
    }

    /// Recovery of a confirmed death at the run's superstep: re-home the
    /// dead slot's GPUs where [`RecoveryConfig::rehome`] says — a spare
    /// (same slot, a fresh worker) or the least-loaded survivor — then one
    /// `Begin` round ([`Self::begin_on`], with the `Ready`s still `owed`)
    /// starts every live worker afresh from the committed checkpoint.
    /// Returns the iteration the run resumes at.
    fn recover(
        &mut self,
        link: &mut impl Link,
        death: Death,
        mut owed: Vec<usize>,
    ) -> Result<u32, ProcError> {
        let confirmed_at = Instant::now();
        let dead = death.slot;
        self.stats[dead] = None;
        // Saves staged past the commit belong to the aborted timeline; the
        // replay re-captures them.
        self.staged.clear();
        let survivors = self.alive_slots();
        let iter = self.iter;
        let unrecoverable = |slot: usize| ProcError::Unrecoverable { worker: slot as u32, iter };
        let Some(mode) = self.recovery.rehome(self.spares_left > 0, !survivors.is_empty()) else {
            return Err(unrecoverable(dead));
        };
        let target = if mode == RecoveryMode::Spare {
            self.spares_left -= 1;
            link.replace(dead)?;
            self.stats[dead] = Some(Stats::default());
            dead
        } else {
            // Water-filling: the least-loaded survivor adopts (ties to the
            // lowest slot for determinism).
            let load = |s: &&usize| (self.hosted(**s).len(), **s);
            *survivors.iter().min_by_key(load).expect("rehome spreads only onto a survivor")
        };
        self.hosting_of.iter_mut().filter(|h| **h == dead).for_each(|h| *h = target);
        owed.retain(|&s| s != dead);
        if let Some(second) = self.begin_on(link, &mut owed)? {
            return Err(unrecoverable(second.slot));
        }
        self.report.recovery = Some(RecoveryReport {
            worker: dead as u32,
            mode,
            detect_seconds: death.detect_seconds,
            recover_seconds: confirmed_at.elapsed().as_secs_f64(),
            resumed_iter: self.cp_iter,
        });
        Ok(self.cp_iter)
    }

    /// Collects final state from every live slot — each ends its traversal
    /// there — folds it onto the committed store and assembles global
    /// depths (and parents, when tracked).
    fn finish(mut self, link: &mut impl Link) -> Result<ProcOutcome, ProcError> {
        self.alive_slots().into_iter().for_each(|slot| link.send(slot, &Msg::Finish));
        // Hosts partition the grid, so with every image of a GPU its sender
        // hosts, one per GPU means every GPU's.
        let iterations = self.report.iterations;
        let mut images = Vec::new();
        let dead = self.gather(
            link,
            &mut self.alive_slots(),
            kind::FINAL_STATE,
            0,
            |round, slot, msg| {
                if let Msg::FinalState { duplicates_ignored, state } = msg {
                    let flats = state.gpus.iter().map(|g| g.gpu_flat);
                    check_hosts(&round.hosting_of, slot, flats, "sent the final state of")?;
                    if state.iter != iterations {
                        let detail = format!(
                            "worker {slot} sent the state entering iteration {}, not {iterations}",
                            state.iter
                        );
                        return Err(ProtocolError::new(detail).into());
                    }
                    round.report.duplicate_frames_ignored += duplicates_ignored;
                    images.extend(state.fold(round.cp_iter, &round.cp_store)?);
                }
                Ok(())
            },
        )?;
        if let Some(death) = dead {
            return Err(ProcError::Unrecoverable { worker: death.slot as u32, iter: self.iter });
        }
        let p = self.topo.num_gpus() as usize;
        if images.len() != p {
            let detail = format!("final state of {} of {p} gpus", images.len());
            return Err(ProtocolError::new(detail).into());
        }
        images.sort_unstable_by_key(|img| img.gpu_flat);
        let views: Vec<GpuStateView<'_>> = images.iter().map(|img| img.view()).collect();
        let (topo, sep) = (&self.topo, &*self.separation);
        let depths = assemble_depths(topo, sep, sep.num_vertices(), &views);
        let parents = self.track_parents.then(|| {
            assemble_parents(topo, sep, self.source, sep.num_vertices(), &views, &depths).0
        });
        Ok(ProcOutcome { depths, parents, report: self.report })
    }
}

/// Refuses state from `slot` (`what` it did with it) of a GPU among
/// `flats` that `hosting_of` does not map to it.
fn check_hosts(
    hosting_of: &[usize],
    slot: usize,
    mut flats: impl Iterator<Item = u32>,
    what: &str,
) -> Result<(), ProtocolError> {
    match flats.find(|&f| hosting_of.get(f as usize) != Some(&slot)) {
        Some(flat) => Err(ProtocolError::new(format!(
            "worker {slot} {what} gpu {flat}, which it does not host"
        ))),
        None => Ok(()),
    }
}

/// The coordinator's relay: routes one superstep's `StepLocal` exchanges —
/// `locals[s]` from slot `s`, `None` for a slot not in the round — into
/// each slot's `StepRemote`. A slot gets every other slot's mask
/// contributions, unopened, and the blocks whose destination it hosts,
/// both in sender order. `hosting_of` maps each flat GPU to its slot, which
/// is in the round.
///
/// # Errors
/// A mask contribution for a rank, or a block from a GPU, that its sender
/// does not host.
fn route(
    topo: &Topology,
    hosting_of: &[usize],
    iter: u32,
    locals: Vec<Option<Exchange<'_>>>,
) -> Result<Vec<Option<Exchange<'static>>>, ProtocolError> {
    let empty = Exchange { iter, contributions: Cow::Owned(Vec::new()), blocks: Vec::new() };
    let mut remotes: Vec<_> = locals.iter().map(|x| x.as_ref().map(|_| empty.clone())).collect();
    let host = |flat: usize| hosting_of.get(flat).copied();
    let rank_host = |rank| (rank < topo.num_ranks()).then(|| topo.flat(GpuId { rank, gpu: 0 }));
    for (from, x) in locals.into_iter().enumerate() {
        let Some(x) = x else { continue };
        let foreign =
            |what| ProtocolError::new(format!("worker {from} sent {what} it does not host"));
        if let Some(c) =
            x.contributions.iter().find(|c| rank_host(c.rank).and_then(host) != Some(from))
        {
            return Err(foreign(format!("a mask contribution for rank {}, which", c.rank)));
        }
        if let Some(b) = x.blocks.iter().find(|b| host(b.src) != Some(from)) {
            return Err(foreign(format!("a block from gpu {}, which", b.src)));
        }
        for (to, remote) in remotes.iter_mut().enumerate() {
            if let Some(remote) = remote.as_mut().filter(|_| to != from) {
                remote.contributions.to_mut().extend(x.contributions.iter().cloned());
            }
        }
        for b in x.blocks {
            let to = remotes[hosting_of[b.dst]].as_mut();
            to.expect("every destination's host is in the round").blocks.push(b);
        }
    }
    Ok(remotes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Block;
    use gcbfs_cluster::collectives::MaskContribution;
    use gcbfs_compress::WireBody;

    /// 2 × 2 grid, one rank per slot.
    const HOSTING_OF: [usize; 4] = [0, 0, 1, 1];

    fn local(rank: u32, src: usize, dst: usize) -> Option<Exchange<'static>> {
        let contribution = MaskContribution { rank, body: WireBody::Raw(vec![1 << rank]) };
        let block = Block { src, dst, body: WireBody::Raw(vec![src as u32]) };
        Some(Exchange {
            iter: 5,
            contributions: Cow::Owned(vec![contribution]),
            blocks: vec![block],
        })
    }

    fn routed(locals: Vec<Option<Exchange<'_>>>) -> Result<Vec<Option<Exchange<'static>>>, String> {
        route(&Topology::new(2, 2), &HOSTING_OF, 5, locals).map_err(|e| e.detail)
    }

    #[test]
    fn route_relays_the_other_slots_contributions_and_delivers_blocks_to_their_host() {
        let remotes = routed(vec![local(0, 1, 2), local(1, 3, 0), None]).unwrap();
        let [Some(to0), Some(to1), None] = &remotes[..] else { panic!("{remotes:?}") };
        for (remote, rank, src) in [(to0, 1, 3), (to1, 0, 1)] {
            assert_eq!(remote.iter, 5);
            assert_eq!(remote.contributions.iter().map(|c| c.rank).collect::<Vec<_>>(), [rank]);
            assert_eq!(remote.blocks.iter().map(|b| b.src).collect::<Vec<_>>(), [src]);
        }
    }

    #[test]
    fn route_refuses_what_the_sender_does_not_host() {
        // Slot 0 hosts rank 0 (GPUs 0-1): a contribution for rank 1 — whose
        // host sent none — or for a rank outside the grid, and a block from
        // GPU 2, are forged.
        for (forged, names) in
            [(local(1, 1, 2), "rank 1"), (local(7, 1, 2), "rank 7"), (local(0, 2, 0), "gpu 2")]
        {
            let err = routed(vec![forged, local(1, 3, 0)]).unwrap_err();
            assert!(err.contains("worker 0 sent") && err.contains(names), "{err}");
        }
    }

    #[test]
    fn state_of_a_gpu_the_sender_does_not_host_is_refused() {
        // A stale save from an aborted superstep covers a subset.
        assert!(check_hosts(&HOSTING_OF, 1, [3].into_iter(), "saved").is_ok());
        for what in ["saved", "sent the final state of"] {
            let err = check_hosts(&HOSTING_OF, 1, [2, 1].into_iter(), what).unwrap_err();
            assert_eq!(err.detail, format!("worker 1 {what} gpu 1, which it does not host"));
        }
    }
}
