//! Verifier recovery from a crash image of a cluster's journal: timed
//! by layer, then checked.

use std::time::Instant;

use cia_keylime::{
    Cluster, RoundReport, RuntimePolicy, Transport, VerifierConfig, VerifierJournal,
};
use cia_storage::LogStore;
use cia_vfs::Vfs;

use crate::stats::Metrics;

/// Where the crash cuts the journal.
#[derive(Clone, Copy)]
pub enum Cut<'a> {
    /// After the last frame: no round in flight, nothing to resume.
    End,
    /// Inside the round whose `report` began at frame `frames_before`:
    /// the first half of its acks survive, plus a torn tail.
    MidRound {
        frames_before: u64,
        report: &'a RoundReport,
    },
}

impl Cut<'_> {
    /// Acks of the cut round that survive the crash.
    fn acked(&self) -> usize {
        match self {
            Cut::End => 0,
            Cut::MidRound { report, .. } => report.results.len() / 2,
        }
    }

    /// The crash image of `cluster`'s journal cut here.
    fn image<T: Transport>(&self, cluster: &Cluster<T>) -> Vfs {
        let log = cluster.journal().expect("durable cluster").log();
        match self {
            Cut::End => log.crash_image(log.frame_count(), 0),
            Cut::MidRound { frames_before, .. } => {
                log.crash_image(frames_before + 1 + self.acked() as u64, 7)
            }
        }
    }
}

/// Timed recoveries, by layer, accumulated over one or more samplings.
#[derive(Debug, Default)]
pub struct Recovery {
    recover_ms: Vec<f64>,
    open_ms: Vec<f64>,
    from_json_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
}

impl Recovery {
    pub fn record(&self, m: &mut Metrics, trace: bool) {
        m.samples("recover_ms", "ms", self.recover_ms.clone());
        if trace {
            m.samples("storage.open_ms", "ms", self.open_ms.clone());
            m.samples("policy.from_json_ms", "ms", self.from_json_ms.clone());
            m.samples("durable.replay_ms", "ms", self.replay_ms.clone());
            m.scalar("durable.frames", "count", self.frames as f64);
            m.scalar("durable.bytes", "bytes", self.bytes as f64);
        }
    }

    /// Times `reps` recoveries of a verifier from crash images of
    /// `cluster`'s journal cut at `cut`, each cut afresh: the whole of
    /// [`VerifierJournal::recover`], and with `layers` on the side the
    /// log open and the parse of `policy_json` (the largest policy
    /// document the journal holds); replay is the rest. The frame and
    /// byte counts are those of the latest image.
    #[allow(clippy::too_many_arguments)]
    pub fn sample<T: Transport>(
        &mut self,
        cluster: &Cluster<T>,
        config: VerifierConfig,
        policy_json: &str,
        cut: Cut<'_>,
        reps: usize,
        layers: bool,
        errors: &mut Vec<String>,
    ) {
        let dir = Cluster::<T>::journal_dir();
        let image = cut.image(cluster);
        self.bytes = image
            .walk_files(&dir)
            .map(|p| image.read(p).map_or(0, |b| b.len() as u64))
            .sum();
        for _ in 0..reps {
            // Each recovery consumes its image, cut afresh and untimed.
            let copy = cut.image(cluster);
            let started = Instant::now();
            let recovered = VerifierJournal::recover(copy, &dir, config);
            let total = started.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = recovered {
                errors.push(format!("recovery failed: {e:?}"));
                return;
            }
            drop(recovered);
            self.recover_ms.push(total);
            if !layers {
                continue;
            }

            let copy = image.clone();
            let started = Instant::now();
            let opened = LogStore::open(copy, &dir);
            let open = started.elapsed().as_secs_f64() * 1e3;
            self.frames = opened.as_ref().map_or(0, |(log, _)| log.frame_count());
            drop(opened);

            let started = Instant::now();
            let parsed = RuntimePolicy::from_json(policy_json);
            let from_json = started.elapsed().as_secs_f64() * 1e3;
            if parsed.is_err() {
                errors.push("policy document does not parse".into());
            }
            drop(parsed);

            self.open_ms.push(open);
            self.from_json_ms.push(from_json);
            self.replay_ms.push((total - open - from_json).max(0.0));
        }
    }
}

/// Recovers `cluster` itself from a crash image of its journal cut at
/// `cut` and checks it: the resume plan `cut` implies, a resumed round
/// identical to the uncrashed one, and durable equivalence.
pub fn check<T: Transport + Sync>(
    cluster: &mut Cluster<T>,
    cut: Cut<'_>,
    errors: &mut Vec<String>,
) {
    let image = cut.image(cluster);
    let acked = cut.acked();
    match (cluster.recover_from_image(image), cut) {
        (Ok(None), Cut::End) => {}
        (Ok(Some(plan)), Cut::MidRound { report, .. }) => {
            if plan.round == 0 || plan.acked != report.results[..acked] {
                errors.push(format!(
                    "resume plan: round {} with {} acks, expected the last round's first {acked}",
                    plan.round,
                    plan.acked.len()
                ));
            }
            if &cluster.attest_fleet_resume(&plan) != report {
                errors.push("resumed round differs from the uncrashed round".into());
            }
        }
        (Ok(plan), _) => errors.push(format!("unexpected resume plan: {plan:?}")),
        (Err(e), _) => errors.push(format!("recover_from_image failed: {e:?}")),
    }
    if let Err(e) = cluster.check_durable_equivalence() {
        errors.push(format!("durable equivalence: {e}"));
    }
}
