//! The in-process replay behind the per-layer metrics.
//!
//! It replays the requests the traced run's TCP phase answered, plus the
//! plan's tail (so every layer is timed on every workload), in five
//! passes. Each pass starts from a fresh engine (or cache) and the
//! workload's warm-up, so all of them see the same cache states.
//!
//! * A — `Engine::process_line` with tracing off, until the time budget
//!   is spent: it picks the requests the other passes replay, and warms
//!   the process up for them.
//! * B — the same with the `lph_trace` recorder on: the traced time, and
//!   the reference responses.
//! * A' — pass A again, now warm: `engine.process_us` and the untraced
//!   time. It runs interleaved with B, request by request, so that the
//!   overhead ratio compares the two under the same machine load.
//! * C — `Engine::process_line` taken apart into the public call of each
//!   layer, each call timed, with the recorder on so that each decision's
//!   `game/*`, `sat/*` and `machine/*` spans and counters can be read. Its
//!   responses must equal pass B's byte for byte; a difference fails the
//!   run, so the decomposition cannot drift from `engine.rs`.
//! * D — `Engine::process_batch` over flights of `FLIGHT` requests: the
//!   batch speedup over pass A.
//!

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lph_analysis::contract::{self, ArbiterArtifact, ReductionArtifact};
use lph_analysis::json::{diagnostics_to_json, Json};
use lph_analysis::{flow, sort_diagnostics};
use lph_core::decide_game_backend;
use lph_graphs::IdAssignment;
use lph_serve::cache::bucket_key;
use lph_serve::proto::{error_line, graph_json, ok_line, LintTarget, Payload};
use lph_serve::{
    arbiter_entries, find_arbiter, find_reduction, parse_request, reduction_entries, Engine,
    EngineConfig, IsoCache, Query,
};
use lph_trace::Snapshot;

use crate::gen::{Plan, Req, FLIGHT};
use crate::report::{quantile, ratio, sorted, LAYER_TIMINGS, LAYER_VALUES};

/// Differences from the engine printed per run.
const SHOW_MISMATCHES: usize = 3;

/// What the replay measured.
pub struct Layers {
    /// Requests replayed (each in every pass).
    pub requests: usize,
    /// Responses that differed from `Engine::process_line`'s.
    pub mismatches: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Runs `f`, returning its value and its wall time in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

fn engine(warmup: &[&str]) -> Engine {
    let engine = Engine::new(EngineConfig::default());
    for line in warmup {
        engine.process_line(line);
    }
    engine
}

/// Replays `answered` (requests with their TCP latency in ms) and the
/// plan's tail; pass A spends at most `budget` on `answered`.
pub fn run(plan: &Plan, answered: &[(&Req, f64)], budget: Duration) -> Layers {
    let warmup: Vec<&str> = plan.warmup.iter().map(|q| q.line.as_str()).collect();

    lph_trace::set_enabled(false);
    let a = engine(&warmup);
    let started = Instant::now();
    let mut kept = 0;
    for (req, _) in answered {
        if started.elapsed() >= budget {
            break;
        }
        a.process_line(&req.line);
        kept += 1;
    }
    let lines: Vec<&str> = answered[..kept]
        .iter()
        .map(|(q, _)| q.line.as_str())
        .chain(plan.tail.iter().map(|q| q.line.as_str()))
        .collect();

    lph_trace::reset();
    lph_trace::set_enabled(true);
    let b = engine(&warmup);
    lph_trace::set_enabled(false);
    let a = engine(&warmup);
    let mut reference = Vec::with_capacity(lines.len());
    let mut untraced = Vec::with_capacity(lines.len());
    let mut traced_us = 0.0;
    for (i, line) in lines.iter().enumerate() {
        // B and A' take turns going first, so both see the same machine.
        for traced in [i % 2 == 0, i % 2 == 1] {
            lph_trace::set_enabled(traced);
            if traced {
                let (response, us) = timed(|| b.process_line(line));
                traced_us += us;
                reference.push(response);
            } else {
                untraced.push(timed(|| a.process_line(line)).1);
            }
        }
    }
    let untraced_us: f64 = untraced.iter().sum();

    lph_trace::set_enabled(true);
    let mut c = Layered::new();
    for line in &warmup {
        c.process(line);
    }
    c.stats = Stats::default();
    let mut mismatches = 0;
    for (line, want) in lines.iter().zip(&reference) {
        let got = c.process(line);
        if got != *want {
            mismatches += 1;
            if mismatches <= SHOW_MISMATCHES {
                eprintln!(
                    "perfbench: the replay differs from Engine::process_line on {line}\n  \
                     engine: {want}\n  replay: {got}"
                );
            }
        }
    }
    lph_trace::set_enabled(false);
    lph_trace::reset();

    let d = engine(&warmup);
    let (mut batched_us, mut flights) = (0.0, 0);
    for (flight, want) in lines.chunks(FLIGHT).zip(reference.chunks(FLIGHT)) {
        let flight: Vec<String> = flight.iter().map(|l| (*l).to_owned()).collect();
        let (responses, us) = timed(|| d.process_batch(&flight));
        batched_us += us;
        flights += 1;
        mismatches += responses.iter().zip(want).filter(|(g, w)| g != w).count();
    }

    let st = &c.stats;
    let process = sorted(untraced[..kept].to_vec());
    let tcp = sorted(answered[..kept].iter().map(|&(_, ms)| ms).collect());
    let transport_ms = quantile(&tcp, 0.5) - quantile(&process, 0.5) / 1e3;
    let p50_ms = |name: &str| quantile(&sorted(st.samples(name)), 0.5) / 1e3;
    let hit_path_ms: f64 = [
        "proto.parse_us",
        "registry.lookup_us",
        "admission.admit_us",
        "cache.key_us",
        "cache.hit_lookup_us",
        "proto.emit_us",
    ]
    .into_iter()
    .map(p50_ms)
    .sum();
    println!(
        "replayed {} requests: {kept} answered over TCP, then {} tail requests",
        lines.len(),
        plan.tail.len()
    );
    println!(
        "server.transport_ms = TCP latency p50 {} ms - engine.process_us p50 {} us",
        quantile(&tcp, 0.5),
        quantile(&process, 0.5)
    );
    println!(
        "hit path: transport {transport_ms} ms + layer p50s {hit_path_ms} ms = {} ms, \
         against TCP latency p50 {} ms",
        transport_ms + hit_path_ms,
        quantile(&tcp, 0.5)
    );
    println!(
        "runtime.batch_speedup base: {untraced_us} us of process_line against {batched_us} us \
         of process_batch over {flights} flights of up to {FLIGHT}"
    );
    println!("trace.overhead_ratio base: {traced_us} us traced against {untraced_us} us untraced");
    println!(
        "cache.hit_ratio base: {} hits in {} lookups; admission.shed_ratio base: {} sheds in {} calls",
        st.hits, st.lookups, st.sheds, st.admit_calls
    );

    let mut metrics = Vec::new();
    for (name, unit) in LAYER_TIMINGS {
        let samples = if name == "engine.process_us" {
            process.clone()
        } else {
            sorted(st.samples(name))
        };
        metrics.push((name.to_owned(), quantile(&samples, 0.5), unit));
        metrics.push((format!("{name}.p99"), quantile(&samples, 0.99), unit));
        metrics.push((format!("{name}.n"), samples.len() as f64, "count"));
    }
    let decide = sorted(st.samples("backend.decide_ms"));
    let per_decide = |total: u64| ratio(total as f64, st.decides as f64);
    let values = [
        transport_ms,
        ratio(untraced_us, batched_us),
        f64::from(flights),
        ratio(st.sheds as f64, st.admit_calls as f64),
        st.admit_calls as f64,
        ratio(st.hits as f64, st.lookups as f64),
        st.lookups as f64,
        c.cache.len() as f64,
        quantile(&decide, 0.5),
        quantile(&decide, 0.99),
        st.decides as f64,
        per_decide(st.table_runs),
        per_decide(st.cnf_clauses),
        per_decide(st.conflicts),
        per_decide(st.steps),
        ratio(traced_us, untraced_us),
        untraced_us / 1e3,
        lines.len() as f64,
    ];
    metrics.extend(
        LAYER_VALUES
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_owned(), value, unit)),
    );
    Layers {
        requests: lines.len(),
        mismatches,
        metrics,
    }
}

/// Timings and counts of pass C.
#[derive(Default)]
struct Stats {
    samples: BTreeMap<&'static str, Vec<f64>>,
    admit_calls: u64,
    sheds: u64,
    lookups: u64,
    hits: u64,
    decides: u64,
    table_runs: u64,
    cnf_clauses: u64,
    conflicts: u64,
    steps: u64,
}

impl Stats {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    fn admitted<T, E>(&mut self, outcome: &Result<T, E>, us: f64) {
        self.push("admission.admit_us", us);
        self.admit_calls += 1;
        self.sheds += u64::from(outcome.is_err());
    }

    /// Records one decision: its time, and the spans and counters the
    /// recorder (reset just before it) collected during it.
    fn decided(&mut self, ms: f64, trace: &Snapshot) {
        self.decides += 1;
        self.push("backend.decide_ms", ms);
        let spans: [(&'static str, &[&str]); 4] = [
            ("game.cdcl_compile_ms", &["game/cdcl_compile"]),
            ("sat.solve_ms", &["sat/solve"]),
            ("sat.proof_check_ms", &["sat/proof/check"]),
            (
                "machine.run_ms",
                &["machine/run_tm", "machine/run_tm_compiled"],
            ),
        ];
        for (metric, names) in spans {
            let ns: Vec<u64> = trace
                .spans
                .iter()
                .filter(|s| names.contains(&s.name.as_str()))
                .map(|s| s.total_ns)
                .collect();
            if !ns.is_empty() {
                self.push(metric, ns.iter().sum::<u64>() as f64 / 1e6);
            }
        }
        let counter = |name: &str| trace.counter(name).unwrap_or(0);
        self.table_runs += counter("game/table_runs");
        self.cnf_clauses += counter("game/cnf_clauses");
        self.conflicts += counter("sat/conflicts");
        self.steps += counter("machine/steps");
    }
}

/// `Engine::process_line` taken apart into the public call of each
/// layer, in the engine's order, each call timed.
struct Layered {
    config: EngineConfig,
    cache: IsoCache,
    stats: Stats,
}

impl Layered {
    fn new() -> Layered {
        let config = EngineConfig::default();
        let cache = config
            .cache_cap
            .map_or_else(IsoCache::new, IsoCache::with_cap);
        Layered {
            config,
            cache,
            stats: Stats::default(),
        }
    }

    fn emit(&mut self, line: impl FnOnce() -> String) -> String {
        let (line, us) = timed(line);
        self.stats.push("proto.emit_us", us);
        line
    }

    fn lookup<T>(&mut self, find: impl FnOnce() -> T) -> T {
        let (found, us) = timed(find);
        self.stats.push("registry.lookup_us", us);
        found
    }

    fn process(&mut self, line: &str) -> String {
        let (parsed, us) = timed(|| parse_request(line));
        self.stats.push("proto.parse_us", us);
        let req = match parsed {
            Ok(req) => req,
            Err((id, e)) => {
                return self.emit(|| error_line(id.as_deref(), e.code, &e.detail, &[]));
            }
        };
        let id = req.id.as_str();
        match &req.query {
            Query::Membership {
                arbiter,
                graph,
                level,
                backend,
                exec,
            } => {
                let Some(entry) = self.lookup(|| find_arbiter(arbiter)) else {
                    return self.emit(|| unknown_artifact(id, "arbiter", arbiter));
                };
                if let Some(l) = level {
                    if *l != entry.level {
                        return self.emit(|| {
                            error_line(
                                Some(id),
                                "unsupported_level",
                                &format!(
                                    "{} arbitrates a {} game at level {}, not level {l}",
                                    entry.key, entry.claimed_class, entry.level
                                ),
                                &[],
                            )
                        });
                    }
                }
                let (admitted, us) = timed(|| {
                    self.config
                        .admission
                        .admit_membership(&entry, graph.node_count(), *exec)
                });
                self.stats.admitted(&admitted, us);
                if let Err(rej) = admitted {
                    return self
                        .emit(|| error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields()));
                }
                let (key, us) = timed(|| {
                    bucket_key(
                        &format!(
                            "membership|{}|{}|{}",
                            entry.key,
                            backend.as_str(),
                            exec.as_str()
                        ),
                        graph,
                    )
                });
                self.stats.push("cache.key_us", us);
                if self.config.cache {
                    let (hit, us) = timed(|| self.cache.lookup(&key, graph));
                    self.stats.lookups += 1;
                    if let Some(payload) = hit {
                        self.stats.hits += 1;
                        self.stats.push("cache.hit_lookup_us", us);
                        return self.emit(|| ok_line(id, &payload));
                    }
                    self.stats.push("cache.miss_lookup_us", us);
                }
                let (built, us) = timed(|| (entry.factory)().with_exec_backend(*exec));
                self.stats.push("backend.arbiter_build_us", us);
                lph_trace::reset();
                let (result, us) = timed(|| {
                    let ids = IdAssignment::global(graph);
                    decide_game_backend(&built, graph, &ids, &self.config.limits, *backend)
                });
                self.stats.decided(us / 1e3, &lph_trace::snapshot());
                let result = match result {
                    Ok(result) => result,
                    Err(e) => {
                        return self.emit(|| {
                            error_line(
                                Some(id),
                                "engine_error",
                                &format!("game decision failed: {e}"),
                                &[],
                            )
                        });
                    }
                };
                let payload: Payload = vec![
                    ("kind".to_owned(), Json::Str("membership".to_owned())),
                    ("arbiter".to_owned(), Json::Str(entry.key.to_owned())),
                    ("nodes".to_owned(), Json::Num(graph.node_count() as f64)),
                    ("level".to_owned(), Json::Num(entry.level as f64)),
                    ("eve_wins".to_owned(), Json::Bool(result.eve_wins)),
                    (
                        "witness".to_owned(),
                        Json::Bool(result.winning_first_move.is_some()),
                    ),
                    (
                        "refutation".to_owned(),
                        Json::Str(
                            match &result.refutation {
                                None => "none",
                                Some(ev) if ev.is_checked() => "checked",
                                Some(_) => "unchecked",
                            }
                            .to_owned(),
                        ),
                    ),
                ];
                if self.config.cache {
                    let ((), us) = timed(|| self.cache.insert(key, graph.clone(), payload.clone()));
                    self.stats.push("cache.insert_us", us);
                }
                self.emit(|| ok_line(id, &payload))
            }
            Query::Lint {
                target_kind,
                key,
                graph,
                deep,
            } => {
                let (admitted, us) =
                    timed(|| self.config.admission.admit_nodes(graph.node_count()));
                self.stats.admitted(&admitted, us);
                if let Err(rej) = admitted {
                    return self
                        .emit(|| error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields()));
                }
                let (target, diags) = match target_kind {
                    LintTarget::Arbiter => {
                        let Some(entry) = self.lookup(|| find_arbiter(key)) else {
                            return self.emit(|| unknown_artifact(id, "arbiter", key));
                        };
                        let (diags, us) = timed(|| {
                            let artifact = ArbiterArtifact::new(
                                (entry.factory)(),
                                entry.claimed_class,
                                entry.declared_rounds,
                            )
                            .with_probes(vec![graph.clone()]);
                            contract::check_arbiter(&artifact)
                        });
                        self.stats.push("contract.lint_us", us);
                        (format!("arbiter:{}", entry.key), diags)
                    }
                    LintTarget::Reduction => {
                        let Some(entry) = self.lookup(|| find_reduction(key)) else {
                            return self.emit(|| unknown_artifact(id, "reduction", key));
                        };
                        let (diags, us) = timed(|| {
                            let artifact =
                                ReductionArtifact::new((entry.factory)(), vec![graph.clone()]);
                            let mut diags = contract::check_reduction(&artifact);
                            if *deep {
                                diags.extend(flow::reduction::check_domain(&artifact));
                                diags.extend(flow::reduction::check_cluster_size(&artifact));
                                diags.extend(flow::reduction::check_output_size(&artifact));
                                diags.extend(flow::reduction::check_reduction_flow(&artifact));
                            }
                            diags
                        });
                        self.stats.push("contract.lint_us", us);
                        (format!("reduction:{}", entry.key), diags)
                    }
                };
                self.emit(|| {
                    let mut diags = diags;
                    sort_diagnostics(&mut diags);
                    let payload: Payload = vec![
                        ("kind".to_owned(), Json::Str("lint".to_owned())),
                        ("target".to_owned(), Json::Str(target)),
                        ("failures".to_owned(), Json::Num(diags.len() as f64)),
                        ("diagnostics".to_owned(), diagnostics_to_json(&diags)),
                    ];
                    ok_line(id, &payload)
                })
            }
            Query::Reduction { reduction, graph } => {
                let Some(entry) = self.lookup(|| find_reduction(reduction)) else {
                    return self.emit(|| unknown_artifact(id, "reduction", reduction));
                };
                let (admitted, us) =
                    timed(|| self.config.admission.admit_nodes(graph.node_count()));
                self.stats.admitted(&admitted, us);
                if let Err(rej) = admitted {
                    return self
                        .emit(|| error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields()));
                }
                let red = (entry.factory)();
                if red.requires_incident_edges() && !flow::reduction_domain_ok(graph) {
                    return self.emit(|| {
                        error_line(
                            Some(id),
                            "bad_graph",
                            &format!("{} requires every node to have an incident edge", entry.key),
                            &[],
                        )
                    });
                }
                let ids = IdAssignment::global(graph);
                let (applied, us) = timed(|| lph_reductions::apply(red.as_ref(), graph, &ids));
                self.stats.push("reductions.apply_us", us);
                let (out, _clusters) = match applied {
                    Ok(pair) => pair,
                    Err(e) => {
                        return self.emit(|| {
                            error_line(
                                Some(id),
                                "engine_error",
                                &format!("reduction failed: {e}"),
                                &[],
                            )
                        });
                    }
                };
                self.emit(|| {
                    let payload: Payload = vec![
                        ("kind".to_owned(), Json::Str("reduction".to_owned())),
                        ("reduction".to_owned(), Json::Str(entry.key.to_owned())),
                        ("nodes".to_owned(), Json::Num(out.node_count() as f64)),
                        ("edges".to_owned(), Json::Num(out.edge_count() as f64)),
                        ("output".to_owned(), graph_json(&out)),
                    ];
                    ok_line(id, &payload)
                })
            }
            Query::List => {
                let (arbiters, reductions) =
                    self.lookup(|| (arbiter_entries(), reduction_entries()));
                self.emit(|| {
                    let arbiters = arbiters
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(e.key.to_owned())),
                                ("class".to_owned(), Json::Str(e.claimed_class.to_owned())),
                                ("level".to_owned(), Json::Num(e.level as f64)),
                                ("rounds".to_owned(), Json::Num(e.declared_rounds as f64)),
                                (
                                    "certified_steps".to_owned(),
                                    e.certified_steps
                                        .as_ref()
                                        .map_or(Json::Null, |p| Json::Str(p.to_string())),
                                ),
                                (
                                    "bytecode_certified_steps".to_owned(),
                                    e.bytecode_certified_steps
                                        .as_ref()
                                        .map_or(Json::Null, |p| Json::Str(p.to_string())),
                                ),
                            ])
                        })
                        .collect();
                    let reductions = reductions
                        .iter()
                        .map(|e| {
                            let red = (e.factory)();
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(e.key.to_owned())),
                                ("name".to_owned(), Json::Str(red.name().to_owned())),
                                ("radius".to_owned(), Json::Num(red.radius() as f64)),
                            ])
                        })
                        .collect();
                    let payload: Payload = vec![
                        ("kind".to_owned(), Json::Str("list".to_owned())),
                        ("arbiters".to_owned(), Json::Arr(arbiters)),
                        ("reductions".to_owned(), Json::Arr(reductions)),
                    ];
                    ok_line(id, &payload)
                })
            }
        }
    }
}

fn unknown_artifact(id: &str, what: &str, key: &str) -> String {
    error_line(
        Some(id),
        "unknown_artifact",
        &format!("no registered {what} with key {key:?} (see the \"list\" query)"),
        &[],
    )
}
