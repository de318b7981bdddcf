//! What every workload shares: arguments, the run outcome and how it is
//! reported, provenance, and the report digest.

use std::path::PathBuf;

use cia_crypto::Sha256;
use cia_keylime::{RoundOutcome, RoundReport};
use serde::Serialize;

use crate::stats::{median, quantile, Metrics};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub const USAGE: &'static str = "usage: perfbench --workload backlog|fleet|churn|all \
         --seed N --seconds S --trace 0|1";

    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => match value.as_str() {
                    "backlog" | "fleet" | "churn" | "all" => workload = Some(value),
                    other => return Err(format!("unknown workload `{other}`")),
                },
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
                "--seconds" => match value.parse::<u64>() {
                    Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                    _ => return Err("--seconds takes a whole number from 1 to 600".into()),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err("--trace takes 0 or 1".into()),
                },
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: derives independent per-purpose streams from the seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hex SHA-256 over the JSON encoding of every report in order: equal
/// digests mean bit-identical reports.
pub fn digest_reports<R: Serialize>(reports: &[R]) -> String {
    let mut h = Sha256::new();
    for r in reports {
        let json = serde_json::to_string(r).expect("round reports serialize");
        h.update(json.as_bytes());
        h.update(b"\n");
    }
    h.finalize().to_hex()
}

/// Where a traced run writes its spans when it ends.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// Checks one round's report: every expected agent appears exactly once,
/// and each agent-round either verifies or is one of the `expected`
/// failures. Every other outcome, an unreachable agent included, is a
/// gate miss appended to `errors`; returns how many agent-rounds missed
/// (the run's failed operations).
pub fn check_round(
    report: &RoundReport,
    agents: usize,
    expect_failed: impl Fn(&cia_keylime::AgentRoundResult) -> bool,
    errors: &mut Vec<String>,
    what: &str,
) -> u64 {
    if report.results.len() != agents {
        errors.push(format!(
            "{what}: {} results for {agents} enrolled agents",
            report.results.len()
        ));
    }
    if report.results.windows(2).any(|w| w[0].id >= w[1].id) {
        errors.push(format!("{what}: results not one per agent in id order"));
    }
    let mut failed = 0;
    for r in &report.results {
        let ok = match &r.outcome {
            RoundOutcome::Verified { .. } => !expect_failed(r),
            RoundOutcome::Failed { .. } => expect_failed(r),
            _ => false,
        };
        if !ok {
            failed += 1;
            errors.push(format!(
                "{what}: unexpected outcome for {}: {:?}",
                r.id, r.outcome
            ));
        }
    }
    failed
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Agent-rounds attempted.
    pub attempted: u64,
    /// Agent-rounds that ended unreachable or with an unexpected outcome.
    pub failed: u64,
    /// Correctness gates missed.
    pub errors: Vec<String>,
    /// Digest of the first measured rounds' reports (see
    /// [`digest_reports`]): equal for equal seeds, traced or not.
    pub digest: String,
    /// Measured rounds.
    pub rounds: usize,
}

impl Outcome {
    /// Prints the metric table, the provenance line and the result line
    /// restricted to `wanted`; returns whether every gate held.
    ///
    /// In the traced run a wanted layer the workload does not exercise
    /// reads 0; an end-to-end metric a workload did not measure is a
    /// missed gate.
    pub fn report(mut self, args: &Args, workload: &str, wanted: &[(&str, &'static str)]) -> bool {
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.scalar("fail_frac", "frac", fail_frac);
        for (name, unit) in wanted {
            if !self.metrics.0.contains_key(*name) {
                if args.trace {
                    self.metrics.scalar(name, unit, 0.0);
                } else {
                    self.errors
                        .push(format!("metric `{name}` was not measured"));
                }
            }
        }
        for (name, m) in &self.metrics.0 {
            if !m.value().is_finite() {
                self.errors.push(format!("metric `{name}` is not finite"));
            }
        }
        if self.attempted == 0 {
            self.errors.push("no agent-round was attempted".into());
        }
        let correct = self.errors.is_empty();
        for e in &self.errors {
            eprintln!("perfbench: {workload}: gate missed: {e}");
        }

        println!(
            "# {workload} seed={} seconds={} trace={} rounds={} attempted={} failed={} fail_frac={fail_frac}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.rounds,
            self.attempted,
            self.failed
        );
        println!(
            "# {:<26} {:>14} {:>14} {:>14} {:>6}  unit",
            "metric", "value", "p10", "p90", "n"
        );
        let mut detail = Vec::new();
        for (name, m) in &self.metrics.0 {
            let p10 = quantile(&m.samples, 0.1);
            let p90 = quantile(&m.samples, 0.9);
            println!(
                "# {name:<26} {:>14.4} {p10:>14.4} {p90:>14.4} {:>6}  {}",
                m.value(),
                m.samples.len(),
                m.unit
            );
            detail.push(format!(
                "\"{name}\":{{\"value\":{},\"median\":{},\"p10\":{},\"p90\":{},\"n\":{},\"unit\":\"{}\"}}",
                finite(m.value()),
                finite(median(&m.samples)),
                finite(p10),
                finite(p90),
                m.samples.len(),
                m.unit
            ));
        }
        println!(
            "{{\"provenance\":{{\"workload\":\"{workload}\",\"commit\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"runs\":{},\"report_digest\":\"{}\",\"fail_frac\":{fail_frac},\"metrics\":{{{}}}}}}}",
            commit(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if cfg!(debug_assertions) { "debug" } else { "release" },
            args.seed,
            args.seconds,
            args.trace,
            self.rounds,
            self.digest,
            detail.join(",")
        );

        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|(name, _)| {
                self.metrics.0.get(*name).map(|m| {
                    format!(
                        "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        finite(m.value()),
                        m.unit
                    )
                })
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The commit under test, when the benchmark runs inside a git
/// checkout; `unknown` otherwise (an exported tree has no history).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
