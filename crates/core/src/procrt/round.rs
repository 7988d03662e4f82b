//! The coordinator's round without sockets: every protocol decision of a
//! proc-backend run, and nothing about processes.
//!
//! A [`Round`] holds one run's state — who hosts which GPUs, each worker's
//! latest frontier counts, the checkpoint store — and drives the run
//! sequence of the frame table in [`super::protocol`]: `Begin` → `Ready`,
//! the superstep loop (`StepGo`, the `route` relay, `StepRemote`) and its
//! termination, the checkpoint cadence and commit, recovery
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
//! The commit lives in a [`Store`], the one the sim's fault layer keeps
//! too. `Begin` is the run's committed iteration-0 checkpoint: the state
//! entering superstep 0 follows from the source alone, so no save is asked
//! for there; the store entering it holds an all-unreached (unsealed)
//! image per GPU. Every other checkpoint is taken at a superstep's barrier,
//! when [`RecoveryConfig::checkpoint_due`] holds for the next superstep:
//! each `StepDone` carries a save, a [`StateDelta`] since the worker's last
//! `Begin` or save whose base must be the commit. The round folds each onto
//! the store as it gathers the barrier ([`StateDelta::fold`]: the fold must
//! reproduce the worker's seal) and commits once the barrier completes
//! (`Store::commit`), as the sim commits its own group's delta; a death
//! aborts the superstep and its saves together. So the store is the run's
//! only copy, and where a death resumes depends only on the superstep it
//! happens in. The final state folds and commits the same way before
//! assembly. Recovery has one path, whenever the death
//! and wherever its GPUs go: re-home them, send every live worker a `Begin`
//! naming the GPUs it hosts from then on (with their committed images as a
//! delta from iteration 0 once there are any, shipped only after their
//! seals verify: [`Store::resume`]), and resume at the commit.
//! [`ProcReport::checkpoints`] counts image commits; `Begin` is not one.

use super::protocol::{frame_iter, kind, Exchange, Msg, ProtocolError, Stats};
use super::{ProcError, ProcReport, RecoveryReport};
use crate::assemble::{assemble_depths, assemble_parents, GpuStateView};
use crate::checkpoint::{GpuDelta, GpuStateImage, StateDelta, Store};
use crate::recovery::{RecoveryConfig, RecoveryMode};
use crate::separation::Separation;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::Frame;
use gcbfs_graph::VertexId;
use std::borrow::Cow;
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
    /// checkpoints and the recovery, its link the rest.
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
    /// The committed checkpoint, which deltas fold onto — at iteration 0,
    /// where `Begin` seeds the source, all-unreached, never shipped and
    /// left unsealed.
    store: Store,
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
        let store = Store::unreached(&topo, &separation, track_parents);
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
            store,
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
    /// from iteration 0, once their seals verify ([`Store::resume`]) — and
    /// gathers a `Ready` from each. `owed` lists the slots whose `Ready` to an
    /// interrupted `Begin` round is still on its way, ahead of this one's:
    /// those are gathered too, so the later one counts. On a death, `owed`
    /// is left with the `Ready`s still due.
    fn begin_on(&mut self, link: &mut impl Link, owed: &mut Vec<usize>) -> Collected {
        let live = self.alive_slots();
        for &slot in &live {
            let hosted = self.hosted(slot);
            let resume = (self.store.iter() > 0).then(|| self.store.resume(&hosted)).transpose();
            let resume = resume.map_err(|e| ProtocolError::new(e.to_string()))?;
            link.send(slot, &Msg::Begin { source: self.source, hosted, resume });
        }
        owed.extend(live);
        self.gather(link, owed, kind::READY, self.store.iter(), |_, _, _| Ok(()))
    }

    /// The one collection loop: waits until every entry of `pending` is
    /// matched by one `accept`-kind frame of iteration `iter` (or of none,
    /// for a kind that carries none) from its slot, in order, records the
    /// frontier counts of a `Ready` or `StepDone`, and hands each to `on`,
    /// within one step timeout. Any other frame is stale — a
    /// survivor's from a superstep a recovery aborted, or a dead slot's —
    /// and skipped on its kind and header iteration ([`frame_iter`]),
    /// undecoded. Returns the first death confirmed instead, if any, with
    /// `pending` left holding the entries not yet matched.
    ///
    /// # Errors
    /// `StepTimeout` at the deadline, at the run's superstep; a malformed
    /// or out-of-contract frame the round consumes; what `on` returns.
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
            let stale = frame.kind != accept || frame_iter(&frame).is_some_and(|i| i != iter);
            if self.stats[slot].is_none() || stale {
                continue;
            }
            let Some(at) = pending.iter().position(|&s| s == slot) else { continue };
            pending.remove(at);
            let msg = Msg::decode(&frame, Some(&self.topo))?;
            if let Msg::Ready(s) | Msg::StepDone { stats: s, .. } = msg {
                self.stats[slot] = Some(s);
            }
            on(self, slot, msg)?;
        }
        Ok(None)
    }

    /// Accepts the `state` `slot` sent if it is what was due — a delta into
    /// iteration `due` of GPUs it hosts, or none when `due` is `None` — and
    /// folds it onto the store, adding the whole images to `folded`.
    ///
    /// # Errors
    /// State where none was due or none where some was, another
    /// iteration, a GPU the sender does not host, or a delta that does not
    /// fold ([`StateDelta::fold`]).
    fn accept_state(
        &self,
        slot: usize,
        state: Option<StateDelta>,
        due: Option<u32>,
        folded: &mut Vec<GpuStateImage>,
    ) -> Result<(), ProtocolError> {
        let refuse = |what| Err(ProtocolError::new(format!("worker {slot} sent {what}")));
        let state = match (state, due) {
            (None, None) => return Ok(()),
            (Some(state), Some(iter)) if state.iter == iter => state,
            (state, due) => {
                let [sent, due] = [state.map(|d| d.iter), due].map(|i| {
                    i.map_or("no state".into(), |i| format!("the state entering iteration {i}"))
                });
                return refuse(format!("{sent} where {due} was due"));
            }
        };
        let foreign = |g: &&GpuDelta| self.hosting_of.get(g.gpu_flat as usize) != Some(&slot);
        if let Some(g) = state.gpus.iter().find(foreign) {
            return refuse(format!("the state of gpu {}, which it does not host", g.gpu_flat));
        }
        folded.extend(state.fold(self.store.iter(), self.store.images())?);
        Ok(())
    }

    fn alive_slots(&self) -> Vec<usize> {
        (0..self.stats.len()).filter(|&s| self.stats[s].is_some()).collect()
    }

    /// The flat GPUs `slot` hosts, ascending.
    fn hosted(&self, slot: usize) -> Vec<usize> {
        (0..self.hosting_of.len()).filter(|&f| self.hosting_of[f] == slot).collect()
    }

    /// One superstep, and the checkpoint entering the next when one is
    /// due. `Ok(None)` means it committed; `Ok(Some(death))` that a death
    /// confirmed first aborted it, saves and all.
    ///
    /// # Errors
    /// As [`Self::gather`]; a save that was not due or does not fold
    /// ([`Self::accept_state`]). Nothing is committed then.
    fn superstep(&mut self, link: &mut impl Link, iter: u32) -> Collected {
        let checkpoint = self.recovery.checkpoint_due(iter + 1, Some(self.store.iter()));
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
        let mut saved = Vec::new();
        let on_done = |round: &mut Self, slot: usize, msg: Msg<'_>| {
            let Msg::StepDone { save, .. } = msg else { return Ok(()) };
            Ok(round.accept_state(slot, save, checkpoint.then_some(iter + 1), &mut saved)?)
        };
        let dead = self.gather(link, &mut self.alive_slots(), kind::STEP_DONE, iter, on_done)?;
        if dead.is_none() && checkpoint {
            self.store.commit(iter + 1, saved)?;
            self.report.checkpoints += 1;
        }
        Ok(dead)
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
            resumed_iter: self.store.iter(),
        });
        Ok(self.store.iter())
    }

    /// Collects final state from every live slot — each ends its traversal
    /// there — folds it onto the committed store, commits it and assembles
    /// global depths (and parents, when tracked) from the store.
    fn finish(mut self, link: &mut impl Link) -> Result<ProcOutcome, ProcError> {
        self.alive_slots().into_iter().for_each(|slot| link.send(slot, &Msg::Finish));
        let iterations = self.report.iterations;
        let mut folded = Vec::new();
        let dead = self.gather(
            link,
            &mut self.alive_slots(),
            kind::FINAL_STATE,
            0,
            |round, slot, msg| {
                if let Msg::FinalState(state) = msg {
                    round.accept_state(slot, Some(state), Some(iterations), &mut folded)?;
                }
                Ok(())
            },
        )?;
        if let Some(death) = dead {
            return Err(ProcError::Unrecoverable { worker: death.slot as u32, iter: self.iter });
        }
        self.store.commit(iterations, folded)?;
        let views: Vec<GpuStateView<'_>> =
            self.store.images().iter().map(|img| img.view()).collect();
        let (topo, sep) = (&self.topo, &*self.separation);
        let depths = assemble_depths(topo, sep, sep.num_vertices(), &views);
        let parents = self.track_parents.then(|| {
            assemble_parents(topo, sep, self.source, sep.num_vertices(), &views, &depths).0
        });
        Ok(ProcOutcome { depths, parents, report: self.report })
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
    use std::collections::VecDeque;

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

    /// A link whose worker frames are scripted: `next` hears them in
    /// order, then nothing; what the round sends is dropped.
    struct Script(VecDeque<Heard>);

    impl Link for Script {
        fn send(&mut self, _: usize, _: &Msg<'_>) {}

        fn next(&mut self, _: Instant) -> Result<Option<Heard>, ProcError> {
            Ok(self.0.pop_front())
        }

        fn replace(&mut self, _: usize) -> Result<(), ProcError> {
            unreachable!("no death is recovered here")
        }
    }

    /// A fresh round on a 2 × 2 grid of 16 isolated vertices, slot `s`
    /// hosting rank `s`, checkpointing every fourth superstep.
    fn round() -> Round {
        let separation = Arc::new(Separation::from_degrees(&[0; 16], 4));
        let hosted = [vec![0, 1], vec![2, 3]];
        let recovery = RecoveryConfig::default();
        Round::new(Topology::new(2, 2), separation, &hosted, 0, false, recovery, Duration::ZERO)
    }

    /// A save of `flats` from the committed store at 0, entering `iter`.
    fn save(round: &Round, flats: &[usize], iter: u32) -> StateDelta {
        let gpus: Vec<_> = flats.iter().map(|&f| (round.store.images()[f].fields(), 0)).collect();
        StateDelta::of(0, 0, iter, false, &gpus)
    }

    /// Superstep `iter` of `round` over the script: both slots' empty
    /// `StepLocal`s, then `done`.
    fn superstep(round: &mut Round, iter: u32, done: Vec<Heard>) -> Collected {
        let local = |slot| {
            let x = Exchange { iter, contributions: Cow::Owned(Vec::new()), blocks: Vec::new() };
            Heard::Frame(slot, Msg::StepLocal(x).frame())
        };
        let mut script = Script([local(0), local(1)].into_iter().chain(done).collect());
        round.superstep(&mut script, iter)
    }

    fn done(slot: usize, iter: u32, save: Option<StateDelta>) -> Heard {
        let stats = Stats { iter, ..Stats::default() };
        Heard::Frame(slot, Msg::StepDone { stats, save }.frame())
    }

    #[test]
    fn a_checkpoint_commits_with_its_barrier_and_nothing_else_commits() {
        // Superstep 3's barrier carries the saves entering 4.
        let base = round();
        let [s0, s1] = [save(&base, &[0, 1], 4), save(&base, &[2, 3], 4)];
        let mut good = round();
        let both = vec![done(0, 3, Some(s0.clone())), done(1, 3, Some(s1.clone()))];
        let dead = superstep(&mut good, 3, both);
        assert!(matches!(dead, Ok(None)), "{dead:?}");
        assert_eq!((good.store.iter(), good.report.checkpoints), (4, 1));
        assert!(good.store.verify().is_ok(), "the commit is sealed");

        let flipped = |mut d: StateDelta| {
            d.gpus[0].digest ^= 1;
            d
        };
        let mut bad_flag =
            Msg::StepDone { stats: Stats { iter: 3, ..Stats::default() }, save: None }
                .frame()
                .payload()
                .to_vec();
        bad_flag[20] = 2;
        // (case, superstep, slot 1's `StepDone` after slot 0's good one, or
        // its death, and the error named; none for the death, which aborts
        // the superstep).
        let cases: [(&str, u32, Heard, &str); 9] = [
            (
                "a save flag byte other than 0 or 1",
                3,
                Heard::Frame(1, Frame::new(kind::STEP_DONE, bad_flag)),
                "flag byte 2 is not 0 or 1",
            ),
            (
                "a save of a gpu the sender does not host",
                3,
                done(1, 3, Some(save(&base, &[1, 2, 3], 4))),
                "worker 1 sent the state of gpu 1, which it does not host",
            ),
            (
                "a save short of a hosted gpu",
                3,
                done(1, 3, Some(save(&base, &[3], 4))),
                "state of 3 of 4 gpus",
            ),
            (
                "a save entering another iteration",
                3,
                done(1, 3, Some(save(&base, &[2, 3], 5))),
                "iteration 5 where the state entering iteration 4 was due",
            ),
            (
                "a save from a base other than the commit",
                3,
                done(1, 3, Some(StateDelta { base: 2, ..s1.clone() })),
                "delta from iteration 2 to 4, but the commit is at 0",
            ),
            (
                "a missing save",
                3,
                done(1, 3, None),
                "worker 1 sent no state where the state entering iteration 4 was due",
            ),
            (
                "a save none was asked for",
                2,
                done(1, 2, Some(save(&base, &[2, 3], 3))),
                "worker 1 sent the state entering iteration 3 where no state was due",
            ),
            (
                "a forged seal",
                3,
                done(1, 3, Some(flipped(s1.clone()))),
                "failed its integrity seal",
            ),
            ("a death", 3, Heard::Dead(Death { slot: 1, detect_seconds: 0.0 }), ""),
        ];
        for (what, iter, heard, detail) in cases {
            let mut round = round();
            let before = round.store.clone();
            let first = done(0, iter, (iter == 3).then(|| s0.clone()));
            let got = superstep(&mut round, iter, vec![first, heard]);
            match (&got, detail) {
                (Ok(Some(death)), "") => assert_eq!(death.slot, 1, "{what}"),
                (Err(ProcError::Protocol(e)), d) if !d.is_empty() => {
                    assert!(e.detail.contains(d), "{what}: {e}")
                }
                _ => panic!("{what}: {got:?}"),
            }
            assert_eq!(round.report.checkpoints, 0, "{what}");
            assert!(round.store == before, "{what} touched the store");
        }
    }

    #[test]
    fn a_stale_frame_is_skipped_on_its_header_undecoded() {
        // Slot 1 dies in superstep 3's barrier, before either `StepDone`.
        let mut round = round();
        let death = Heard::Dead(Death { slot: 1, detect_seconds: 0.0 });
        let dead = superstep(&mut round, 3, vec![death]);
        let Ok(Some(death)) = dead else { panic!("{dead:?}") };
        // Slot 0's `StepDone` from the aborted barrier arrives during the
        // recovery's `Ready` gather with its save cut short: stale, so it
        // is skipped on its header, and its body is never decoded.
        let stats = Stats { iter: 3, ..Stats::default() };
        let body = Msg::StepDone { stats, save: Some(save(&round, &[0, 1], 4)) }.frame();
        let cut = Frame::new(kind::STEP_DONE, body.payload()[..body.payload().len() - 9].to_vec());
        assert!(Msg::decode(&cut, Some(&round.topo)).is_err(), "the cut body does not decode");
        let ready = Msg::Ready(Stats::default()).frame();
        let mut script = Script([Heard::Frame(0, cut), Heard::Frame(0, ready)].into());
        let resumed = round.recover(&mut script, death, Vec::new());
        assert!(matches!(resumed, Ok(0)), "{resumed:?}");
        let rec = round.report.recovery.expect("the death is recovered");
        assert_eq!((rec.worker, rec.mode, rec.resumed_iter), (1, RecoveryMode::Spread, 0));
        assert_eq!(round.hosted(0), [0, 1, 2, 3]);
    }
}
