//! The verifier benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload backlog|fleet|churn|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, does a fixed amount of work
//! sized to last about `--seconds` on a 2-core host (`churn`: a fixed
//! number of days), checks every correctness gate of its workload, prints a
//! metric table (median, p10, p90, samples) and a provenance line, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`. A missed gate makes the exit code non-zero.
//!
//! Nothing measured on another machine is gated: the gates compare
//! outputs, and ratios taken inside the same run.

mod backlog;
mod churn;
mod common;
mod fleet;
mod recovery;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{Args, Outcome};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("round_ms_p90", "ms"),
    ("entries_per_s", "1/s"),
    ("agents_per_s", "1/s"),
    ("update_ms_p50", "ms"),
    ("recover_ms", "ms"),
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer a workload does not exercise reads 0 there (`layers.json` names
/// the workloads each layer is measured on and the end-to-end metric it
/// should move).
const PER_LAYER: [(&str, &str); 29] = [
    ("agent.quote_ms", "ms"),
    ("transport.codec_ms", "ms"),
    ("transport.bytes", "bytes"),
    ("transport.calls", "count"),
    ("transport.drops", "count"),
    ("tpm.quote_verify_ms", "ms"),
    ("ima.replay_ms", "ms"),
    ("policy.lookup_ms", "ms"),
    ("verifier.other_ms", "ms"),
    ("scheduler.gap_ms", "ms"),
    ("scheduler.latency_p99_us", "us"),
    ("federation.head_ms", "ms"),
    ("federation.tail_ms", "ms"),
    ("federation.shard_skew", "ratio"),
    ("remote.overhead_frac", "frac"),
    ("distro.sync_ms", "ms"),
    ("generator.diff_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("policy.apply_delta_ms", "ms"),
    ("durable.record_delta_ms", "ms"),
    ("storage.open_ms", "ms"),
    ("durable.replay_ms", "ms"),
    ("policy.from_json_ms", "ms"),
    ("durable.frames", "count"),
    ("durable.bytes", "bytes"),
    ("tenant.enrol_ms", "ms"),
    ("generator.initial_ms", "ms"),
    ("ledger.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn run(args: &Args, workload: &str) -> Outcome {
    match workload {
        "backlog" => backlog::run(args),
        "fleet" => fleet::run(args),
        "churn" => churn::run(args),
        other => unreachable!("workload `{other}` was validated at parse time"),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        vec!["backlog", "fleet", "churn"]
    } else {
        vec![args.workload.as_str()]
    };
    let wanted: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut all_correct = true;
    for workload in workloads {
        let outcome = run(&args, workload);
        let correct = outcome.report(&args, workload, wanted);
        all_correct &= correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
