//! `churn`: the paper's daily loop at paper scale on a durable cluster.
//!
//! The initial policy comes from the generator over the paper-calibrated
//! release stream (295,969 lines). Each day: upstream publishes, the
//! mirror syncs, the generator ingests the diff and the delta is
//! published and journaled (the update window of Fig. 3), the machines
//! upgrade from the mirror and run a few binaries, durable fleet rounds
//! attest them, and the update window closes (its retirements ship with
//! the next day's delta). One fixed node runs an implant on a fixed day. The run ends
//! by recovering a verifier from a crash image cut inside the last
//! round.
//!
//! This is the only workload that writes the policy index beside reading
//! it, and the only one that uses the generator, the mirror and a
//! journal that grows with the days. Its measured work is a fixed number
//! of days rather than a time budget, because recovery cost grows with
//! the days journaled.

use std::sync::Arc;
use std::time::Instant;

use cia_core::generator::{DynamicPolicyGenerator, GeneratorConfig};
use cia_distro::{Mirror, ReleaseStream, Repository, StreamProfile};
use cia_keylime::{
    AgentId, AgentRoundResult, Cluster, FailureKind, PolicyDelta, ReliableTransport, RoundOutcome,
    RoundReport, RuntimePolicy, VerifierConfig, VerifierJournal,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_vfs::{Vfs, VfsPath};

use crate::common::{self, check_round, mix, Args, Outcome};
use crate::recovery::{self, Cut, Recovery};
use crate::stats::{median, quantile, Metrics};
use crate::trace::{RoundLedger, Traced, Tracer};

/// Machines in the fleet. Per-agent journal cost (each enrolment
/// snapshot holds the whole shared policy) sets the size: on a 2-vCPU
/// host, 12 machines take about 58 s and 3.3 GB peak RSS per run, 24
/// take 107 s and 4.7 GB.
const MACHINES: usize = 12;
/// Each machine installs every `INSTALL_EVERY`-th mirrored package
/// (offset by its index) plus the kernel.
const INSTALL_EVERY: usize = 48;
/// Days run after set-up.
const DAYS: u32 = 6;
/// Durable attestation rounds per day.
const ROUNDS_PER_DAY: usize = 24;
/// Benign executions per machine per day.
const EXECS_PER_DAY: usize = 4;
/// The compromised node and the day its implant runs.
const IMPLANT_NODE: usize = 5;
const IMPLANT_DAY: u32 = 3;
const IMPLANT_PATH: &str = "/usr/local/bin/.cache-helper";
/// Verifier workers (one shard). The durable rounds of this small fleet
/// take about a millisecond; with two workers their p90 varied up to
/// threefold between identical runs on the 2-vCPU reference host, with
/// one it holds steady.
const WORKERS: usize = 1;
/// Generator hashing threads: the reference host's two cores.
const HASH_WORKERS: usize = 2;
/// Timed recoveries from copies of the crash image (each takes seconds
/// here); the checked recovery after them is not timed.
const RECOVERIES: usize = 2;
/// Rounds whose reports make up the run's report digest.
const DIGEST_ROUNDS: usize = 24;

type Fleet = Cluster<Traced<ReliableTransport>>;

struct Setup {
    cluster: Fleet,
    stream: ReleaseStream,
    repo: Repository,
    mirror: Mirror,
    generator: DynamicPolicyGenerator,
    ids: Vec<AgentId>,
    base_json: String,
    initial_ms: f64,
    enrol_ms: f64,
}

fn config() -> VerifierConfig {
    VerifierConfig::builder()
        .worker_count(WORKERS)
        .continue_on_failure(true)
        .build()
        .expect("churn verifier config is valid")
}

fn setup(seed: u64, tracer: &Arc<Tracer>) -> Setup {
    // The release stream, the packages each machine installs and the
    // binaries it runs are the same for every seed, so every run does the
    // same update and appraisal work; the seed picks the key material
    // (cluster, TPMs, nonces) and the implant's bytes.
    let (stream, repo) = ReleaseStream::new(StreamProfile::paper_calibrated());
    let mut mirror = Mirror::new();
    mirror.sync(&repo, 0);
    let kernel = MachineConfig::default().running_kernel;
    let gen_config = GeneratorConfig {
        hash_workers: HASH_WORKERS,
        ..GeneratorConfig::paper_default()
    };
    let started = Instant::now();
    let (generator, _) = DynamicPolicyGenerator::generate_initial(&mirror, &kernel, 0, gen_config);
    let initial_ms = started.elapsed().as_secs_f64() * 1e3;
    let base_json = generator.policy().to_json();

    let mut cluster = Cluster::with_transport(
        mix(seed, 0xc1),
        config(),
        Traced::new(ReliableTransport::new(), Arc::clone(tracer)),
    );
    cluster.publish_policy(generator.policy().clone());
    let packages: Vec<_> = mirror.packages().cloned().collect();
    let mut enrol_ms = 0.0;
    let mut ids = Vec::new();
    for i in 0..MACHINES {
        let machine_config = MachineConfig {
            hostname: format!("churn-{i:03}"),
            seed: mix(seed, 0x1000 + i as u64),
            ..MachineConfig::default()
        };
        let mut agent =
            cia_keylime::Agent::new(Machine::new(&cluster.manufacturer, machine_config));
        let m = agent.machine_mut();
        for (k, pkg) in packages.iter().enumerate() {
            if pkg.is_kernel || (k + i) % INSTALL_EVERY == 0 {
                m.apt
                    .install(&mut m.vfs, pkg)
                    .expect("mirror package installs");
            }
        }
        // The machine already runs the installed kernel.
        m.apt.take_latest_staged_kernel();
        let started = Instant::now();
        ids.push(cluster.add_agent_shared(agent).expect("enrolment"));
        enrol_ms += started.elapsed().as_secs_f64() * 1e3;
    }
    cluster.enable_durability().expect("journal enables");
    Setup {
        cluster,
        stream,
        repo,
        mirror,
        generator,
        ids,
        base_json,
        initial_ms,
        enrol_ms,
    }
}

/// Runs up to `EXECS_PER_DAY` installed binaries on `m`: freshly
/// upgraded packages first, then a daily rotation of stable ones.
fn daily_execs(m: &mut Machine, repo: &Repository, upgraded: &[String], rotation: usize) {
    let installed: Vec<String> = m.apt.installed().map(|(n, _)| n.clone()).collect();
    let n = installed.len().max(1);
    let stable = (0..installed.len()).map(|k| &installed[(k + rotation) % n]);
    let mut executed = 0;
    for name in upgraded.iter().chain(stable) {
        if executed >= EXECS_PER_DAY {
            break;
        }
        let Some(path) = repo
            .get(name)
            .and_then(|p| p.executable_files().next())
            .and_then(|f| VfsPath::new(&f.install_path).ok())
        else {
            continue;
        };
        if m.vfs.is_file(&path) {
            m.exec(&path, ExecMethod::Direct).expect("benign exec");
            executed += 1;
        }
    }
}

/// Replays one publish on copies, split into its two layers: the policy
/// merge, and the journal append.
fn replay_publish(mut policy: RuntimePolicy, delta: &PolicyDelta, cluster: &Fleet) -> (f64, f64) {
    let started = Instant::now();
    policy.apply_delta(delta);
    let apply = started.elapsed().as_secs_f64() * 1e3;
    let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &Fleet::journal_dir())
        .expect("scratch journal");
    let started = Instant::now();
    journal
        .record_publish_delta(cluster.policy_epoch(), delta)
        .expect("scratch journal append");
    (apply, started.elapsed().as_secs_f64() * 1e3)
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(false);
    let setup_started = Instant::now();
    let Setup {
        mut cluster,
        mut stream,
        mut repo,
        mut mirror,
        mut generator,
        ids,
        base_json,
        initial_ms,
        enrol_ms,
    } = setup(args.seed, &tracer);
    let mut out = Outcome::default();
    let first = cluster.attest_fleet();
    out.attempted += ids.len() as u64;
    out.failed += check_round(
        &first,
        ids.len(),
        |_| false,
        &mut out.errors,
        "enrolment round",
    );
    let setup_s = setup_started.elapsed().as_secs_f64();

    let implant_id = ids[IMPLANT_NODE].clone();
    let mut update_ms = Vec::new();
    let mut sync_ms = Vec::new();
    let mut diff_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut apply_ms = Vec::new();
    let mut record_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut ledgers = Vec::new();
    let mut entries = 0u64;
    let mut reports: Vec<RoundReport> = Vec::new();
    let mut detections = 0usize;
    let mut last_round = None;
    for day in 1..=DAYS {
        repo.apply_release(&stream.next_day());

        // The update window: mirror sync → generator diff → delta
        // published fleet-wide and journaled.
        tracer.set_enabled(args.trace);
        let before = args.trace.then(|| generator.policy().clone());
        let (diff, sync) = tracer.stage("distro.sync", || mirror.sync(&repo, day));
        let (delta, gen) = tracer.stage("generator.diff", || {
            generator.apply_diff(&diff, day);
            generator.take_delta()
        });
        let (_, publish) = tracer.stage("store.publish", || cluster.publish_delta(&delta));
        tracer.set_enabled(false);
        update_ms.push(sync + gen + publish);
        sync_ms.push(sync);
        diff_ms.push(gen);
        publish_ms.push(publish);
        if let Some(before) = before {
            let (apply, record) = replay_publish(before, &delta, &cluster);
            apply_ms.push(apply);
            record_ms.push(record);
        }

        // Machines upgrade from the mirror, reboot into a new kernel once
        // its policy is published, and run a few binaries.
        let packages: Vec<_> = mirror.packages().cloned().collect();
        let mut staged = None;
        let mut upgraded = Vec::new();
        for id in &ids {
            let m = cluster.agent_mut(id).expect("enrolled").machine_mut();
            let upgrade = m.run_updates(packages.iter()).expect("mirror upgrade");
            staged = staged.or(upgrade.kernel_staged);
            upgraded.push(
                upgrade
                    .upgraded
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>(),
            );
        }
        if let Some(release) = staged {
            generator.on_kernel_boot(&release);
            cluster.publish_delta(&generator.take_delta());
            for id in &ids {
                let m = cluster.agent_mut(id).expect("enrolled").machine_mut();
                m.reboot().expect("reboot into the staged kernel");
            }
        }
        for (i, names) in upgraded.iter().enumerate() {
            let m = cluster.agent_mut(&ids[i]).expect("enrolled").machine_mut();
            daily_execs(m, &repo, names, day as usize * EXECS_PER_DAY);
            if i == IMPLANT_NODE && day == IMPLANT_DAY {
                let path = VfsPath::new(IMPLANT_PATH).expect("constant path");
                m.write_executable(&path, format!("implant {}", args.seed).as_bytes())
                    .expect("implant written");
                m.exec(&path, ExecMethod::Direct).expect("implant runs");
            }
            m.clock.next_day();
        }

        // Continuous attestation through the day: durable rounds, the
        // first of which appraises the day's executions.
        for round in 0..ROUNDS_PER_DAY {
            let traced = args.trace && round.is_multiple_of(2);
            tracer.set_enabled(traced);
            let frames_before = cluster.journal().map_or(0, |j| j.log().frame_count());
            let entries_before = cluster.scheduler.snapshot().entries_evaluated;
            let t0 = tracer.now();
            let started = Instant::now();
            let report = cluster.attest_fleet();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let t1 = tracer.now();
            tracer.set_enabled(false);
            entries += cluster.scheduler.snapshot().entries_evaluated - entries_before;
            round_ms.push(ms);
            if traced {
                traced_ms.push(ms);
                ledgers.push(RoundLedger::of(&tracer.calls_between(t0, t1), t0, t1));
            } else if args.trace {
                untraced_ms.push(ms);
            }

            let is_implant =
                |r: &AgentRoundResult| r.id == implant_id && day == IMPLANT_DAY && round == 0;
            let what = format!("day {day} round {round}");
            out.attempted += ids.len() as u64;
            out.failed += check_round(&report, ids.len(), is_implant, &mut out.errors, &what);
            for r in &report.results {
                if let RoundOutcome::Failed { alerts } = &r.outcome {
                    detections += 1;
                    let only_implant = alerts.iter().all(|a| {
                        matches!(&a.kind, FailureKind::NotInPolicy { path, .. } if path == IMPLANT_PATH)
                    });
                    if !is_implant(r) || !only_implant {
                        out.errors
                            .push(format!("{what}: false positive on {}: {alerts:?}", r.id));
                    }
                }
            }
            if !report.epoch_converged() {
                out.errors.push(format!(
                    "{what}: fleet did not converge on the published epoch"
                ));
            }
            if reports.len() < DIGEST_ROUNDS {
                reports.push(report.clone());
            }
            last_round = Some((frames_before, report));
        }

        // Close the update window; its retirements ride with the next
        // day's delta.
        generator.finish_update_window();
    }
    if detections != 1 {
        out.errors.push(format!(
            "implant detected {detections} times, expected once"
        ));
    }
    out.rounds = round_ms.len();
    out.digest = common::digest_reports(&reports);
    if !cluster.scheduler.snapshot().is_conserved() {
        out.errors
            .push("scheduler metrics are not conserved".into());
    }

    let (frames_before, last) = last_round.expect("at least one round ran");
    let cut = Cut::MidRound {
        frames_before,
        report: &last,
    };
    let mut rec = Recovery::default();
    rec.sample(
        &cluster,
        config(),
        &base_json,
        cut,
        RECOVERIES,
        args.trace,
        &mut out.errors,
    );
    recovery::check(&mut cluster, cut, &mut out.errors);

    let median_round_s = median(&round_ms) / 1e3;
    let mut m = Metrics::default();
    m.scalar("setup_s", "s", setup_s);
    m.derived(
        "round_ms_p90",
        "ms",
        quantile(&round_ms, 0.9),
        round_ms.clone(),
    );
    // Only the first round of a day appraises new entries, so the entry
    // rate is the mean entries per round over the median round.
    let entries_per_round = entries as f64 / round_ms.len() as f64;
    m.scalar("entries_per_s", "1/s", entries_per_round / median_round_s);
    m.scalar("agents_per_s", "1/s", ids.len() as f64 / median_round_s);
    m.samples("round_ms_p50", "ms", round_ms);
    m.samples("update_ms_p50", "ms", update_ms);
    m.scalar("tenant.enrol_ms", "ms", enrol_ms);
    rec.record(&mut m, args.trace);
    if args.trace {
        m.samples("distro.sync_ms", "ms", sync_ms);
        m.samples("generator.diff_ms", "ms", diff_ms);
        m.samples("store.publish_ms", "ms", publish_ms);
        m.samples("policy.apply_delta_ms", "ms", apply_ms);
        m.samples("durable.record_delta_ms", "ms", record_ms);
        m.scalar("generator.initial_ms", "ms", initial_ms);
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
        crate::trace::write_spans(&tracer, "churn", args.seed);
    }
    m.scalar("peak_rss_mb", "MiB", common::peak_rss_mb());
    out.metrics = m;
    out
}
