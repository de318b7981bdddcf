//! `fleet`: 10,000 TPM+IMA machines on one shared policy, steady-state
//! polling. Each round a policy delta allows two new binaries, every
//! machine runs them, and one federated round over two shards (one
//! worker each, on the in-memory duplex wire) attests the fleet through
//! a transport that drops 1% of calls. The files are written outside the
//! timed region.
//!
//! Per-agent fixed costs (quote sign and verify, JSON RPC, retries,
//! scheduler dispatch, health update, shard codec, federation merge,
//! audit and revocation commit) dominate; entry work is small. The
//! traced run also drives an in-process twin federation through the same
//! rounds, for the wire's overhead, and checks the twins agree.
//!
//! The cluster is durable from the end of set-up: its journal holds the
//! enrolled fleet and every delta the rounds publish, and recoveries of
//! it are timed between the rounds.

use std::sync::Arc;
use std::time::Instant;

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    AgentId, AgentRoundResult, AuditLog, AuditOutcome, Cluster, FederatedRoundReport, Federation,
    FederationConfig, LossyTransport, PolicyDelta, RoundOutcome, RuntimePolicy, ShardTransportKind,
    VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_vfs::VfsPath;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, check_round, mix, Args, Outcome};
use crate::recovery::{self, Cut, Recovery};
use crate::stats::{median, quantile, rates, Metrics};
use crate::trace::{RoundLedger, Traced, Tracer};

/// Machines in the fleet.
pub const AGENTS: usize = 10_000;
/// Verifier shards, each with one worker: shards × workers stays at
/// the two cores of the reference host.
const SHARDS: u32 = 2;
/// Share of calls the transport drops, each direction.
const DROP_RATE: f64 = 0.01;
/// Retries per agent per round: enough that a 1% loss rate never
/// leaves an agent unreachable.
const MAX_RETRIES: u32 = 8;
/// Rounds measured per second of `--seconds`. A run does a fixed amount
/// of work, sized to last about `--seconds` on a 2-core reference host:
/// the fleet's memory grows with every round, so a time-bound run would
/// report more memory for a faster commit.
const ROUNDS_PER_SECOND: f64 = 1.5;
/// Distinct binaries; each round runs two new ones, so a run can last
/// `POOL / 2 - 1` rounds.
const POOL: usize = 512;
/// Times the whole set-up is repeated; `setup_s` is their median.
const SETUPS: usize = 2;
/// Timed recoveries after each round, each from a crash image of the
/// journal as it stands, cut afresh; the checked recovery at the end is
/// not timed. Spreading them over the run, rather than timing them back to
/// back, lets host noise that lasts seconds hit them as it hits the
/// rounds.
const RECOVERIES_PER_ROUND: usize = 2;
/// Rounds whose reports make up the run's report digest.
const DIGEST_ROUNDS: usize = 3;
/// The traced run fails when the stages leave more than this share of
/// the median traced round unaccounted for (see
/// [`RoundLedger::unattributed_frac`]). Measured at 1.5-4%: what the
/// replay does not cover is shard-side work (each shard's own report,
/// its last frames, the thread joins).
pub const LEDGER_TOLERANCE: f64 = 0.10;

pub type FleetCluster = Cluster<Traced<LossyTransport>>;

/// A built fleet: the cluster owning the machines, the federation that
/// polls them, and the binaries the rounds run.
pub struct Rig {
    pub cluster: FleetCluster,
    pub fed: Federation,
    /// An in-process twin of `fed` over the same agents, driven through
    /// the same rounds when present.
    pub twin: Option<Federation>,
    pub ids: Vec<AgentId>,
    pool: Vec<(String, String, Vec<u8>)>,
    round: usize,
    pub enrol_ms: f64,
}

pub fn config() -> VerifierConfig {
    VerifierConfig::builder()
        .worker_count(1)
        .max_retries(MAX_RETRIES)
        .build()
        .expect("fleet verifier config is valid")
}

/// Builds an `agents`-machine fleet federated over the duplex wire (plus,
/// with `twin`, an in-process twin federation), with every machine
/// enrolled and attested once (its boot measurements).
pub fn build(seed: u64, agents: usize, twin: bool, tracer: &Arc<Tracer>) -> Rig {
    let transport = Traced::new(
        LossyTransport::new(DROP_RATE, mix(seed, 0xf1)),
        Arc::clone(tracer),
    );
    let mut cluster = Cluster::with_transport(mix(seed, 0xf2), config(), transport);
    cluster.publish_policy(RuntimePolicy::new());
    let salt = mix(seed, 0xf3);
    let pool = (0..POOL)
        .map(|k| {
            let path = format!("/srv/fleet/bin/app-{:016x}", mix(salt, k as u64));
            let content = format!("fleet binary {salt:x} {k}").into_bytes();
            let digest = HashAlgorithm::Sha256.digest(&content).to_hex();
            (path, digest, content)
        })
        .collect();
    let started = Instant::now();
    let ids = (0..agents)
        .map(|i| {
            cluster
                .add_machine_shared(MachineConfig {
                    hostname: format!("node-{i:05}"),
                    seed: mix(seed, 0x10_0000 + i as u64),
                    ..MachineConfig::default()
                })
                .expect("enrolment within the retry budget")
        })
        .collect();
    let enrol_ms = started.elapsed().as_secs_f64() * 1e3;
    let fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(SHARDS, config()).with_transport(ShardTransportKind::Duplex),
    );
    let twin = twin.then(|| {
        Federation::from_verifier(&cluster.verifier, FederationConfig::new(SHARDS, config()))
    });
    let mut rig = Rig {
        cluster,
        fed,
        twin,
        ids,
        pool,
        round: 0,
        enrol_ms,
    };
    rig.cluster.attest_fleet_federated(&mut rig.fed);
    if let Some(twin) = rig.twin.as_mut() {
        rig.cluster.attest_fleet_federated(twin);
    }
    rig
}

impl Rig {
    /// True while the pool has two binaries no machine has run yet.
    pub fn has_next(&self) -> bool {
        2 * self.round + 1 < POOL
    }

    /// Starts the next round: writes its two binaries onto every machine,
    /// publishes the delta that allows them (to the twin and the
    /// cluster's journal too), and runs them everywhere. Returns the
    /// federation's publish time in ms; the rest is untimed.
    pub fn next_round(&mut self) -> f64 {
        let picks = [&self.pool[2 * self.round], &self.pool[2 * self.round + 1]];
        self.round += 1;
        let paths: Vec<VfsPath> = picks
            .iter()
            .map(|(path, _, _)| VfsPath::new(path).expect("generated paths are valid"))
            .collect();
        for agent in self.cluster.agents_mut() {
            let m = agent.machine_mut();
            for (path, (_, _, content)) in paths.iter().zip(picks) {
                m.write_executable(path, content).expect("write binary");
            }
        }
        let delta = PolicyDelta {
            added: picks
                .iter()
                .map(|(path, digest, _)| (path.clone(), digest.clone()))
                .collect(),
            ..PolicyDelta::default()
        };
        let started = Instant::now();
        self.fed.publish_delta(&delta);
        let publish_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(twin) = self.twin.as_mut() {
            twin.publish_delta(&delta);
        }
        self.cluster.publish_delta(&delta);
        for agent in self.cluster.agents_mut() {
            let m = agent.machine_mut();
            for path in &paths {
                m.exec(path, ExecMethod::Direct)
                    .expect("exec allowed binary");
            }
        }
        publish_ms
    }

    /// One federated round over the fleet, committed to the audit chain
    /// and revocation bus.
    pub fn attest(&mut self) -> FederatedRoundReport {
        self.cluster.attest_fleet_federated(&mut self.fed)
    }

    /// The same round through the in-process twin, when there is one.
    pub fn attest_twin(&mut self) -> Option<FederatedRoundReport> {
        let mut twin = self.twin.take()?;
        let report = self.cluster.attest_fleet_federated(&mut twin);
        self.twin = Some(twin);
        Some(report)
    }

    /// Replays the round's work after the last call returns, on copies:
    /// the merge of the per-shard results into the fleet report, and the
    /// audit commit of every outcome to a fresh audit log (the rounds
    /// raise no alerts, so nothing is revoked). Returns its time in ms.
    fn replay_post_call(&self, report: &FederatedRoundReport) -> f64 {
        let shards: Vec<Vec<AgentRoundResult>> = report
            .per_shard
            .iter()
            .map(|(_, shard)| shard.results.clone())
            .collect();
        let mut audit = AuditLog::new(&mut StdRng::seed_from_u64(self.round as u64));
        let started = Instant::now();
        let mut fleet = Vec::new();
        for mut rows in shards {
            rows.sort_by(|a, b| a.id.cmp(&b.id));
            fleet.extend(rows.iter().cloned());
        }
        fleet.sort_by(|a, b| a.id.cmp(&b.id));
        for r in &fleet {
            let outcome = match r.outcome {
                RoundOutcome::Verified { .. } => AuditOutcome::Verified,
                _ => AuditOutcome::Failed,
            };
            audit.record(r.day, &r.id, outcome);
        }
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Checks a round's merged report: every agent present, each
    /// appraising exactly its two new entries, on the published epoch.
    pub fn check(
        &self,
        report: &FederatedRoundReport,
        what: &str,
        errors: &mut Vec<String>,
    ) -> u64 {
        let failed = check_round(&report.fleet, self.ids.len(), |_| false, errors, what);
        for r in &report.fleet.results {
            if let RoundOutcome::Verified { new_entries } = r.outcome {
                if new_entries != 2 {
                    errors.push(format!(
                        "{what}: {} appraised {new_entries} entries, not 2",
                        r.id
                    ));
                }
            }
        }
        if !report.fleet.epoch_converged() {
            errors.push(format!(
                "{what}: fleet did not converge on the published epoch"
            ));
        }
        failed
    }
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let started = Instant::now();
        built = Some(build(args.seed, AGENTS, args.trace, &tracer));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut rig = built.expect("set up at least once");
    let mut out = Outcome::default();
    rig.cluster.enable_durability().expect("journal enables");
    // The largest policy document in the journal: the one each agent's
    // enrolment snapshot holds. The rounds' deltas are two entries each.
    let policy_json = rig.cluster.verifier.policy_store().policy().to_json();
    let mut rec = Recovery::default();

    let mut round_ms = Vec::new();
    let mut update_ms = Vec::new();
    let mut entries = 0u64;
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut twin_ms = Vec::new();
    let mut ledgers = Vec::new();
    let mut unattributed = Vec::new();
    let mut reports = Vec::new();
    let rounds = (args.seconds as f64 * ROUNDS_PER_SECOND).ceil() as usize;
    while rig.has_next() && round_ms.len() < rounds {
        let round = round_ms.len();
        update_ms.push(rig.next_round());

        let traced = args.trace && round.is_multiple_of(2);
        tracer.set_enabled(traced);
        let calls_before = rig.fed.fleet_metrics().calls;
        let entries_before = rig.fed.fleet_metrics().entries_evaluated;
        let t0 = tracer.now();
        let started = Instant::now();
        let report = rig.attest();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let t1 = tracer.now();
        tracer.set_enabled(false);
        let after = rig.fed.fleet_metrics();
        entries = after.entries_evaluated - entries_before;
        round_ms.push(ms);
        let what = format!("round {round}");
        out.attempted += rig.ids.len() as u64;
        out.failed += rig.check(&report, &what, &mut out.errors);
        if traced {
            traced_ms.push(ms);
            let ledger = RoundLedger::of(&tracer.calls_between(t0, t1), t0, t1);
            unattributed.push(ledger.unattributed_frac(rig.replay_post_call(&report)));
            if ledger.calls != after.calls - calls_before {
                out.errors.push(format!(
                    "{what}: {} call spans for {} scheduler calls",
                    ledger.calls,
                    after.calls - calls_before
                ));
            }
            ledgers.push(ledger);
        } else if args.trace {
            untraced_ms.push(ms);
        }
        let started = Instant::now();
        if let Some(twin_report) = rig.attest_twin() {
            twin_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if twin_report != report {
                out.errors
                    .push(format!("{what}: in-process twin report differs"));
            }
        }
        if reports.len() < DIGEST_ROUNDS {
            reports.push(report.fleet);
        }
        rec.sample(
            &rig.cluster,
            config(),
            &policy_json,
            Cut::End,
            RECOVERIES_PER_ROUND,
            args.trace,
            &mut out.errors,
        );
    }
    recovery::check(&mut rig.cluster, Cut::End, &mut out.errors);
    out.rounds = round_ms.len();
    out.digest = common::digest_reports(&reports);
    let metrics = rig.fed.fleet_metrics();
    if !metrics.is_conserved() {
        out.errors.push("fleet metrics are not conserved".into());
    }

    let mut m = Metrics::default();
    m.samples("setup_s", "s", setup_s);
    m.derived(
        "round_ms_p90",
        "ms",
        quantile(&round_ms, 0.9),
        round_ms.clone(),
    );
    m.samples("entries_per_s", "1/s", rates(&round_ms, entries as f64));
    m.samples(
        "agents_per_s",
        "1/s",
        rates(&round_ms, rig.ids.len() as f64),
    );
    m.samples("round_ms_p50", "ms", round_ms);
    m.samples("update_ms_p50", "ms", update_ms.clone());
    m.scalar("tenant.enrol_ms", "ms", rig.enrol_ms);
    rec.record(&mut m, args.trace);
    if args.trace {
        if median(&unattributed) > LEDGER_TOLERANCE {
            out.errors.push(format!(
                "stage sum leaves {:.1}% of the median traced round unattributed (tolerance {:.0}%)",
                median(&unattributed) * 100.0,
                LEDGER_TOLERANCE * 100.0
            ));
        }
        m.samples("ledger.unattributed_frac", "frac", unattributed);
        m.samples("store.publish_ms", "ms", update_ms);
        crate::trace::record_transport(&mut m, &ledgers, &traced_ms, &untraced_ms);
        m.scalar(
            "remote.overhead_frac",
            "frac",
            median(&untraced_ms) / median(&twin_ms) - 1.0,
        );
        let p99 = metrics.latency_percentile_ns(99.0).unwrap_or(0);
        m.scalar("scheduler.latency_p99_us", "us", p99 as f64 / 1e3);
        crate::trace::write_spans(&tracer, "fleet", args.seed);
    }
    m.scalar("peak_rss_mb", "MiB", common::peak_rss_mb());
    out.metrics = m;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enough machines that a 1% loss rate drops some calls each round.
    const TEST_AGENTS: usize = 300;

    /// Two rounds of a small fleet, with tracing on or off throughout.
    fn two_rounds(seed: u64, traced: bool) -> (Vec<FederatedRoundReport>, u64) {
        let tracer = Tracer::new(false);
        let mut rig = build(seed, TEST_AGENTS, false, &tracer);
        tracer.set_enabled(traced);
        let reports = (0..2)
            .map(|_| {
                rig.next_round();
                rig.attest()
            })
            .collect();
        (reports, rig.fed.fleet_metrics().drops)
    }

    #[test]
    fn tracing_leaves_reports_bit_identical() {
        let (untraced, drops) = two_rounds(11, false);
        let (traced, traced_drops) = two_rounds(11, true);
        assert!(drops > 0, "the rounds must exercise the drop stream");
        assert_eq!(
            drops, traced_drops,
            "lane forks keep each lane's drop stream"
        );
        assert_eq!(untraced, traced);
        let mut errors = Vec::new();
        for r in &traced {
            assert_eq!(r.fleet.results.len(), TEST_AGENTS);
            assert_eq!(
                check_round(&r.fleet, TEST_AGENTS, |_| false, &mut errors, "t"),
                0
            );
        }
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn report_digest_follows_the_seed() {
        let digest = |seed| {
            let fleet: Vec<_> = two_rounds(seed, false)
                .0
                .into_iter()
                .map(|r| r.fleet)
                .collect();
            common::digest_reports(&fleet)
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn in_process_twin_agrees_with_the_wire() {
        let tracer = Tracer::new(true);
        let mut rig = build(5, 64, true, &tracer);
        for _ in 0..2 {
            rig.next_round();
            let wire = rig.attest();
            assert_eq!(Some(wire), rig.attest_twin());
        }
    }
}
