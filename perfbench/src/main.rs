//! `perfbench` — the end-to-end benchmark of `lph-serve`.
//!
//! ```text
//! USAGE: perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!        perfbench --server PATH --workload NAME --seed N --smoke
//! ```
//!
//! With `--trace 0` it starts the release `lph-serve` binary at `PATH`
//! (several times, to time start-up), drives it over loopback TCP with the
//! workload's seeded request stream for `S` seconds, checks every response
//! against the generator's oracle, and prints the end-to-end metrics. With
//! `--trace 1` it drives the same stream over TCP for half the window,
//! then replays the answered requests in process, layer by layer, and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! `--smoke` runs both on a short window and fails unless every answer was
//! right and every metric is present. The workloads and the reasons for
//! them are described in `gen`; `BENCHMARK.json` records them.

#![forbid(unsafe_code)]

mod gen;
mod load;
mod replay;
mod report;
mod server;

use std::process::ExitCode;
use std::time::Duration;

use gen::{Plan, Req, Shape, Workload};
use load::LoadLog;
use report::{beyond, quantile, ratio, sorted, Report, END_TO_END};
use server::Server;

const USAGE: &str = "USAGE: perfbench --server PATH --workload warm_hits|cold_solve|mixed_open \
                     --seed N (--seconds S --trace 0|1 | --smoke)";

/// Server start-ups per end-to-end run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// Share of the window a traced run spends driving the server over TCP.
const TRACE_TCP_SHARE: f64 = 0.5;
/// Time budget of each replay pass, as a share of the window.
const REPLAY_PASS_SHARE: f64 = 0.1;
/// The window of a smoke run, in seconds.
const SMOKE_SECONDS: f64 = 1.5;
/// An open-loop run whose generator wrote later than one mean arrival gap
/// at p99 is invalid: its latencies measure the generator, not the
/// service.
const LATENESS_BOUND_MS: f64 = 1e3 / gen::OPEN_RATE;
/// Wrong answers printed per run.
const SHOW_ERRORS: usize = 3;

struct Args {
    server: String,
    workload: Workload,
    seed: u64,
    /// The window in seconds and whether to trace; `None` for a smoke run.
    timed: Option<(f64, bool)>,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut workload, mut seed) = (None, None, None);
    let (mut seconds, mut trace, mut smoke) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(value),
            "--workload" => {
                let parsed = Workload::parse(&value);
                workload = Some(parsed.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                let parsed = value.parse::<u64>();
                seed = Some(parsed.map_err(|_| format!("--seed takes an integer, got {value:?}"))?);
            }
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0);
                seconds = Some(parsed.ok_or_else(|| {
                    format!("--seconds takes a number in (0, 600], got {value:?}")
                })?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let timed = match (smoke, seconds, trace) {
        (true, None, None) => None,
        (false, Some(seconds), Some(trace)) => Some((seconds, trace)),
        _ => return Err("give either --smoke or both --seconds and --trace".to_owned()),
    };
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        timed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.timed {
        None => smoke(&args),
        Some((seconds, trace)) => {
            let plan = gen::plan(args.workload, args.seed, seconds);
            let run = if trace {
                traced(&args.server, &plan, seconds)
            } else {
                end_to_end(&args.server, &plan, seconds)
            };
            run.map(|report| report.print())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end run: start-up times, the warm-up, the timed window, and
/// the server's peak memory.
fn end_to_end(bin: &str, plan: &Plan, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut server = None;
    for _ in 0..SETUP_SAMPLES {
        let (started, setup) = Server::start(bin)?;
        setups.push(setup);
        // Replacing the previous server stops it.
        server = Some(started);
    }
    let server = server.expect("SETUP_SAMPLES is positive");
    let warm_failed = warm_up(&server, plan)?;
    let log = drive(&server, plan, seconds)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);
    let scored = score(plan, &log);
    report_lateness(&log);
    let latency = sorted(scored.latencies);
    println!(
        "latency samples: {} ({} beyond p99)",
        latency.len(),
        beyond(latency.len(), 0.99)
    );
    let attempted = scored.attempted + plan.warmup.len();
    let failed = scored.failed + warm_failed;
    let values = [
        quantile(&sorted(setups), 0.5),
        ratio(scored.answered as f64, log.window_s),
        quantile(&latency, 0.5),
        quantile(&latency, 0.99),
        ratio((attempted - failed) as f64, attempted as f64),
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
        .collect();
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: a TCP phase over part of the window, then the
/// in-process replay of what it answered.
fn traced(bin: &str, plan: &Plan, seconds: f64) -> Result<Report, String> {
    let (server, _) = Server::start(bin)?;
    let warm_failed = warm_up(&server, plan)?;
    let log = drive(&server, plan, seconds * TRACE_TCP_SHARE)?;
    drop(server);
    let scored = score(plan, &log);
    report_lateness(&log);
    let answered = answered_in_order(plan, &log);
    let budget = Duration::from_secs_f64(seconds * REPLAY_PASS_SHARE);
    let layers = replay::run(plan, &answered, budget);
    Ok(Report {
        attempted: scored.attempted + plan.warmup.len() + layers.requests,
        failed: scored.failed + warm_failed + layers.mismatches,
        metrics: layers.metrics,
    })
}

/// Sends the warm-up as one untimed flight; returns how many of its
/// answers were wrong.
fn warm_up(server: &Server, plan: &Plan) -> Result<usize, String> {
    let responses = load::flight(server.addr, &plan.warmup)?;
    let mut shown = 0;
    Ok(plan
        .warmup
        .iter()
        .zip(&responses)
        .filter(|(req, response)| wrong(req, response, &mut shown))
        .count())
}

fn drive(server: &Server, plan: &Plan, seconds: f64) -> Result<LoadLog, String> {
    let window = Duration::from_secs_f64(seconds);
    match &plan.shape {
        Shape::Closed { depth, wrap } => {
            load::closed(server.addr, &plan.streams, *depth, *wrap, window)
        }
        Shape::Open { due } => load::open(server.addr, &plan.streams[0], due, window),
    }
}

/// A timed phase's responses, checked against the oracle.
struct Scored {
    attempted: usize,
    failed: usize,
    answered: usize,
    latencies: Vec<f64>,
}

fn score(plan: &Plan, log: &LoadLog) -> Scored {
    let mut scored = Scored {
        attempted: 0,
        failed: 0,
        answered: 0,
        latencies: Vec::new(),
    };
    let mut shown = 0;
    for (conn, stream) in log.conns.iter().zip(&plan.streams) {
        if let Some(e) = &conn.error {
            eprintln!("perfbench: a connection stopped early: {e}");
        }
        scored.attempted += conn.sent;
        scored.failed += conn.sent - conn.answers.len();
        scored.answered += conn.answers.len();
        for answer in &conn.answers {
            scored.latencies.push(answer.latency_ms);
            let req = &stream[answer.index % stream.len()];
            scored.failed += usize::from(wrong(req, &answer.line, &mut shown));
        }
    }
    scored
}

/// Checks one response, printing the first few wrong ones.
fn wrong(req: &Req, response: &str, shown: &mut usize) -> bool {
    match req.check(response) {
        Ok(()) => false,
        Err(e) => {
            if *shown < SHOW_ERRORS {
                eprintln!("perfbench: {e}");
                *shown += 1;
            }
            true
        }
    }
}

/// Prints the open-loop generator's lateness and whether the run is valid.
fn report_lateness(log: &LoadLog) {
    if log.lateness_ms.is_empty() {
        return;
    }
    let p99 = quantile(&sorted(log.lateness_ms.clone()), 0.99);
    let validity = if p99 <= LATENESS_BOUND_MS {
        "valid"
    } else {
        "INVALID: the generator ran late, so the latencies measure it, not the service"
    };
    println!(
        "generator lateness p99 = {p99} ms over {} sends (bound {LATENESS_BOUND_MS} ms): {validity}",
        log.lateness_ms.len()
    );
}

/// The answered requests with their TCP latencies, in the order the
/// replay processes them: round-robin over the connections, as far as
/// every connection got.
fn answered_in_order<'a>(plan: &'a Plan, log: &LoadLog) -> Vec<(&'a Req, f64)> {
    let depth = log.conns.iter().map(|c| c.answers.len()).min().unwrap_or(0);
    let mut out = Vec::with_capacity(depth * log.conns.len());
    for j in 0..depth {
        for (conn, stream) in log.conns.iter().zip(&plan.streams) {
            let answer = &conn.answers[j];
            out.push((&stream[answer.index % stream.len()], answer.latency_ms));
        }
    }
    out
}

/// Both runs on a short window; fails unless every answer was right and
/// every metric is present.
fn smoke(args: &Args) -> Result<(), String> {
    let plan = gen::plan(args.workload, args.seed, SMOKE_SECONDS);
    let e2e = end_to_end(&args.server, &plan, SMOKE_SECONDS)?;
    e2e.print();
    let layers = traced(&args.server, &plan, SMOKE_SECONDS)?;
    layers.print();
    let e2e_names: Vec<String> = END_TO_END
        .iter()
        .map(|(name, _)| (*name).to_owned())
        .collect();
    let layer_names: Vec<String> = report::layer_metrics()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for (report, names) in [(&e2e, e2e_names), (&layers, layer_names)] {
        if report.failed > 0 {
            return Err(format!(
                "smoke: {} of {} requests failed",
                report.failed, report.attempted
            ));
        }
        let got: Vec<&String> = report.metrics.iter().map(|(name, ..)| name).collect();
        if got != names.iter().collect::<Vec<_>>() {
            return Err(format!("smoke: metrics {got:?}, expected {names:?}"));
        }
    }
    println!("smoke ok");
    Ok(())
}
