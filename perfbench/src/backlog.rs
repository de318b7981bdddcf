//! `backlog`: one TPM+IMA machine with a 10,000-entry measurement list,
//! re-enrolled before each round so that every round appraises the whole
//! list through the scheduler — the first contact after enrolment or
//! reboot. Default verifier config (structured excerpt), one worker.
//!
//! Entry-proportional layers (excerpt codec, template hash and PCR
//! replay, policy lookup) do almost all the work; per-agent fixed costs,
//! federation, journal and store do almost none. The traced run replays
//! the verifier's stages through public functions on a captured quote
//! and checks that the stages account for the round's wall time.

use std::sync::Arc;
use std::time::Instant;

use cia_crypto::{HashAlgorithm, VerifyingKey};
use cia_ima::BOOT_AGGREGATE_NAME;
use cia_keylime::{
    AgentId, AgentRequest, AgentResponse, Cluster, PolicyCheck, QuoteResponse, ReliableTransport,
    RoundOutcome, RoundReport, RuntimePolicy, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_tpm::pcr::extend_digest;
use cia_vfs::VfsPath;

use crate::common::{self, check_round, mix, Args, Outcome};
use crate::recovery::{self, Cut, Recovery};
use crate::stats::{median, quantile, rates, Metrics};
use crate::trace::{RoundLedger, Traced, Tracer};

/// Executed binaries in the measurement list (plus `boot_aggregate`).
pub const ENTRIES: usize = 10_000;
/// `setup_s` is the median of the set-up the rounds run on and of one
/// more, built and dropped between rounds, every this many rounds. The
/// set-up takes about 0.1 s, and host slowdowns of 50% last seconds
/// here: set-ups timed back to back caught one of them per run, and
/// their medians varied by half between runs.
const ROUNDS_PER_SETUP: usize = 12;
/// Rounds measured per second of `--seconds`. A run does a fixed amount
/// of work, sized to last about `--seconds` on a 2-core reference host,
/// so that every metric compares the same work across commits.
const ROUNDS_PER_SECOND: f64 = 15.0;
/// The traced run fails when the named stages leave more than this
/// share of the median round unaccounted for.
pub const LEDGER_TOLERANCE: f64 = 0.15;
/// One timed recovery, from a freshly cut crash image, every this many
/// rounds; the checked recovery at the end is not timed. Spreading them
/// over the run, rather than timing them back to back, lets host noise
/// that lasts seconds hit them as it hits the rounds.
const ROUNDS_PER_RECOVERY: usize = 4;
/// Rounds whose reports make up the run's report digest.
const DIGEST_ROUNDS: usize = 3;

type Backlog = Cluster<Traced<ReliableTransport>>;

struct Setup {
    cluster: Backlog,
    id: AgentId,
    ak: VerifyingKey,
    policy: RuntimePolicy,
    enrol_ms: f64,
}

fn config() -> VerifierConfig {
    VerifierConfig::builder()
        .worker_count(1)
        .build()
        .expect("backlog verifier config is valid")
}

fn setup(seed: u64, tracer: &Arc<Tracer>) -> Setup {
    let mut cluster = Cluster::with_transport(
        mix(seed, 0xb1),
        config(),
        Traced::new(ReliableTransport::new(), Arc::clone(tracer)),
    );
    let started = Instant::now();
    let id = cluster
        .add_machine(
            MachineConfig {
                hostname: "backlog-node".to_string(),
                seed: mix(seed, 0xb2),
                ..MachineConfig::default()
            },
            RuntimePolicy::new(),
        )
        .expect("enrolment over a reliable transport");
    let enrol_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut policy = RuntimePolicy::new();
    let salt = mix(seed, 0xb3);
    let m = cluster.agent_mut(&id).expect("enrolled").machine_mut();
    let paths: Vec<VfsPath> = (0..ENTRIES)
        .map(|i| VfsPath::new(&format!("/usr/bin/tool-{:016x}", mix(salt, i as u64))))
        .collect::<Result<_, _>>()
        .expect("generated paths are valid");
    for (i, path) in paths.iter().enumerate() {
        m.write_executable(path, format!("binary {salt:x} {i}").as_bytes())
            .expect("write binary");
        let digest = m
            .vfs
            .file_digest(path, HashAlgorithm::Sha256)
            .expect("digest of a written file");
        policy.allow(path.as_str(), digest.to_hex());
    }
    for path in &paths {
        m.exec(path, ExecMethod::Direct)
            .expect("exec allowed binary");
    }
    let ak = m.tpm.ak_public().expect("enrolled TPM has an AK").clone();
    Setup {
        cluster,
        id,
        ak,
        policy,
        enrol_ms,
    }
}

/// Per-stage times of one appraisal replayed on a fresh decode of the
/// captured quote: quote check, template hash + PCR replay, lookup.
struct Replay {
    quote_verify_ms: f64,
    replay_ms: f64,
    lookup_ms: f64,
}

fn replay_stages(
    quote_json: &str,
    ak: &VerifyingKey,
    nonce: &[u8],
    policy: &RuntimePolicy,
    errors: &mut Vec<String>,
) -> Replay {
    let resp: QuoteResponse = serde_json::from_str(quote_json).expect("captured quote decodes");
    let entries = resp.entries().expect("structured excerpt");

    let started = Instant::now();
    let quote_ok = resp.quote().verify(ak, nonce);
    let quote_verify_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let mut fold = HashAlgorithm::Sha256.zero_digest();
    for e in entries {
        fold = extend_digest(
            HashAlgorithm::Sha256,
            fold,
            e.template_hash(HashAlgorithm::Sha256),
        );
    }
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let allowed = entries
        .iter()
        .filter(|e| e.path != BOOT_AGGREGATE_NAME)
        .filter(|e| policy.check_digest(&e.path, &e.filedata_hash) == PolicyCheck::Allowed)
        .count();
    let lookup_ms = started.elapsed().as_secs_f64() * 1e3;

    if !quote_ok || resp.quote().pcr_value(10) != Some(fold) || allowed != ENTRIES {
        errors.push(format!(
            "replayed appraisal disagrees: quote {quote_ok}, replay {}, {allowed} allowed",
            resp.quote().pcr_value(10) == Some(fold)
        ));
    }
    Replay {
        quote_verify_ms,
        replay_ms,
        lookup_ms,
    }
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(false);
    let mut out = Outcome::default();
    // Recovery is measured on a set-up of its own, whose journal holds
    // the agent with its 10,000-entry policy: the rounds' cluster must
    // stay non-durable, or every round would journal an ack carrying the
    // policy.
    let mut durable = setup(args.seed, &tracer);
    durable.cluster.verifier.add_agent(
        durable.id.clone(),
        durable.ak.clone(),
        durable.policy.clone(),
    );
    durable
        .cluster
        .enable_durability()
        .expect("journal enables");
    let durable_json = durable.policy.to_json();
    let mut rec = Recovery::default();

    let started = Instant::now();
    let Setup {
        mut cluster,
        id,
        ak,
        policy,
        enrol_ms,
    } = setup(args.seed, &tracer);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    // The quote the traced run replays, captured once outside the rounds.
    let nonce = b"perfbench-backlog-replay".to_vec();
    let quote_json = match cluster
        .agent_mut(&id)
        .expect("enrolled")
        .handle(AgentRequest::Quote {
            nonce: nonce.clone(),
            from_entry: 0,
            structured: true,
        }) {
        AgentResponse::Quote(resp) => serde_json::to_string(&resp).expect("quote encodes"),
        other => panic!("agent refused the capture quote: {other:?}"),
    };

    let mut round_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut update_ms = Vec::new();
    let mut entries = 0u64;
    let mut ledgers = Vec::new();
    let mut replays = Vec::new();
    let mut reports: Vec<RoundReport> = Vec::new();
    let rounds = (args.seconds as f64 * ROUNDS_PER_SECOND).ceil() as usize;
    for round in 0..rounds {
        // Alternate traced and untraced rounds in the traced run, so the
        // tracing overhead is measured on the same state.
        let traced = args.trace && round.is_multiple_of(2);
        tracer.set_enabled(traced);

        let started = Instant::now();
        cluster
            .verifier
            .add_agent(id.clone(), ak.clone(), policy.clone());
        update_ms.push(started.elapsed().as_secs_f64() * 1e3);

        let entries_before = cluster.scheduler.snapshot().entries_evaluated;
        let t0 = tracer.now();
        let started = Instant::now();
        let report = cluster.attest_fleet();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let t1 = tracer.now();
        entries = cluster.scheduler.snapshot().entries_evaluated - entries_before;
        tracer.set_enabled(false);

        out.attempted += 1;
        out.failed += check_round(
            &report,
            1,
            |_| false,
            &mut out.errors,
            &format!("round {round}"),
        );
        if !matches!(report.results.first().map(|r| &r.outcome),
                     Some(RoundOutcome::Verified { new_entries }) if *new_entries == ENTRIES + 1)
        {
            out.errors
                .push(format!("round {round} did not appraise the whole backlog"));
        }
        if let Some(first) = reports.first() {
            if &report != first {
                out.errors
                    .push(format!("round {round} report differs from round 0"));
            }
        }
        round_ms.push(ms);
        if args.trace {
            if traced {
                traced_ms.push(ms);
                ledgers.push(RoundLedger::of(&tracer.calls_between(t0, t1), t0, t1));
                replays.push(replay_stages(
                    &quote_json,
                    &ak,
                    &nonce,
                    &policy,
                    &mut out.errors,
                ));
            } else {
                untraced_ms.push(ms);
            }
        }
        if reports.len() < DIGEST_ROUNDS {
            reports.push(report);
        }
        if round % ROUNDS_PER_SETUP == ROUNDS_PER_SETUP / 2 {
            let started = Instant::now();
            let again = setup(args.seed, &tracer);
            setup_s.push(started.elapsed().as_secs_f64());
            drop(again);
        }
        if round % ROUNDS_PER_RECOVERY == 0 {
            rec.sample(
                &durable.cluster,
                config(),
                &durable_json,
                Cut::End,
                1,
                args.trace,
                &mut out.errors,
            );
        }
    }
    recovery::check(&mut durable.cluster, Cut::End, &mut out.errors);
    drop(durable);
    out.rounds = rounds;
    out.digest = common::digest_reports(&reports);
    if !cluster.scheduler.snapshot().is_conserved() {
        out.errors
            .push("scheduler metrics are not conserved".into());
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
    m.samples("agents_per_s", "1/s", rates(&round_ms, 1.0));
    m.samples("round_ms_p50", "ms", round_ms);
    m.samples("update_ms_p50", "ms", update_ms);
    m.scalar("tenant.enrol_ms", "ms", enrol_ms);
    rec.record(&mut m, args.trace);
    if args.trace {
        let quote_verify: Vec<f64> = replays.iter().map(|r| r.quote_verify_ms).collect();
        let replay: Vec<f64> = replays.iter().map(|r| r.replay_ms).collect();
        let lookup: Vec<f64> = replays.iter().map(|r| r.lookup_ms).collect();
        let other: Vec<f64> = ledgers
            .iter()
            .zip(&replays)
            .map(|(l, r)| {
                l.round_ms - l.serve_ms - l.codec_ms - r.quote_verify_ms - r.replay_ms - r.lookup_ms
            })
            .collect();
        let unattributed = median(&other).abs() / median(&traced_ms);
        if unattributed > LEDGER_TOLERANCE {
            out.errors.push(format!(
                "stage sum leaves {:.1}% of the round unattributed (tolerance {:.0}%)",
                unattributed * 100.0,
                LEDGER_TOLERANCE * 100.0
            ));
        }
        m.samples("tpm.quote_verify_ms", "ms", quote_verify);
        m.samples("ima.replay_ms", "ms", replay);
        m.samples("policy.lookup_ms", "ms", lookup);
        m.samples("verifier.other_ms", "ms", other);
        m.scalar("ledger.unattributed_frac", "frac", unattributed);
        crate::trace::record_transport(&mut m, &ledgers, &traced_ms, &untraced_ms);
        m.scalar(
            "scheduler.latency_p99_us",
            "us",
            cluster
                .scheduler
                .snapshot()
                .latency_percentile_ns(99.0)
                .unwrap_or(0) as f64
                / 1e3,
        );
        crate::trace::write_spans(&tracer, "backlog", args.seed);
    }
    m.scalar("peak_rss_mb", "MiB", common::peak_rss_mb());
    out.metrics = m;
    out
}
