//! Seeded request streams for the three workloads, each request paired
//! with its expected answer.
//!
//! Expected answers come from oracles independent of the service:
//! colourability from `lph_props::is_k_colorable`, Eulerian-ness from
//! degree parity, all-selected from the labels, and the error code a
//! request was designed to draw (sheds, bad lines, unknown keys). Nothing
//! here calls the engine or the game backend.
//!
//! Every membership graph is registered under a signature built from the
//! invariants the service's cache bucket key uses (arbiter, execution
//! tier, node and edge counts, the sorted degree/label multiset), and a
//! graph is only used when its signature is new. So a cache miss is a new
//! iso-class alone in its bucket, and the service never has to search for
//! an isomorphism between two different classes.

use std::collections::HashSet;
use std::fmt::Write as _;

use lph_analysis::json::Json;
use lph_analysis::validate_serve_response;
use lph_graphs::generators::XorShift;
use lph_graphs::{BitString, LabeledGraph};
use lph_props::is_k_colorable;

/// `warm_hits`: closed-loop connections, one request in flight on each.
const WARM_CONNECTIONS: usize = 2;
/// `cold_solve`: requests per pipelined flight on its one connection. The
/// replay's batch pass cuts every workload into flights of this size.
pub const FLIGHT: usize = 8;
/// `mixed_open`: the arrival rate, in requests per second. Set once from
/// the seed commit, which sustains 400 req/s on this mix without a growing
/// backlog and falls behind at 800; never retuned.
pub const OPEN_RATE: f64 = 200.0;

/// Length of each `warm_hits` stream; a connection that reaches the end
/// starts over, since every request is a hit anyway.
const WARM_STREAM: usize = 4096;
/// Length of the `cold_solve` stream. It cannot wrap (every request is a
/// new class), so a run that exhausts it ends early.
const COLD_STREAM: usize = 6000;

/// The four arbiters cheap enough to serve at high rates.
const CHEAP: [&str; 4] = [
    "all_selected_decider",
    "eulerian_decider",
    "two_colorable_verifier",
    "three_colorable_verifier",
];

/// The kinds of `cold_solve` request, each with its own size schedule.
#[derive(Clone, Copy)]
enum Cold {
    /// 3-colouring a plain even cycle: 20–60 ms, set by the size.
    Three,
    /// 2-colouring a chorded cycle of 64–100 nodes: 15–55 ms.
    TwoBig,
    /// 2-colouring a chorded cycle of 24–63 nodes: 5–30 ms.
    TwoMid,
    Pi1,
    Euler,
    AllSelected,
}

/// `cold_solve` flights come in rounds of this many; the first flight of
/// a round is led by a 3-colouring request, the others by a large
/// 2-colouring one.
const COLD_ROUND: usize = 8;

/// The sizes of the plain cycles `cold_solve` 3-colours.
const THREE_SIZES: [usize; 8] = [8, 10, 12, 14, 16, 18, 20, 22];

/// The `r`-th 3-colouring class of `cold_solve`: a plain cycle of `n`
/// nodes with `z` of them unselected, one of the `n + 1` label classes of
/// its size. The classes of every size are spread evenly over the
/// sequence, so any stretch of it costs about the same.
fn plain_cycle_class(r: usize) -> (usize, usize) {
    let mut classes: Vec<(usize, usize)> = THREE_SIZES
        .iter()
        .flat_map(|&n| (0..=n).map(move |z| (n, z)))
        .collect();
    assert!(
        r < classes.len(),
        "cold_solve has only {} 3-colouring classes",
        classes.len()
    );
    // By the share (z + 1/2) / (n + 1) of its size's classes used so far.
    classes.sort_by(|&(n, z), &(m, y)| {
        ((2 * z + 1) * (m + 1))
            .cmp(&((2 * y + 1) * (n + 1)))
            .then(n.cmp(&m))
    });
    classes[r]
}

/// The requests of `cold_solve` flight `f`, heaviest first: the pool
/// hands requests to its workers in order, so the lead request runs on
/// one worker while the other works through the rest. Every flight holds
/// CDCL and TM work alike and costs about the same, so the latencies form
/// one broad mode and neither quantile sits between two modes; the CDCL
/// verifiers take about four fifths of the busy time and the TM deciders
/// the rest.
fn cold_flight(f: usize) -> [Cold; FLIGHT] {
    let lead = if f.is_multiple_of(COLD_ROUND) {
        Cold::Three
    } else {
        Cold::TwoBig
    };
    let last = if f.is_multiple_of(2) {
        Cold::Euler
    } else {
        Cold::AllSelected
    };
    [
        lead,
        Cold::TwoMid,
        Cold::Pi1,
        Cold::Euler,
        Cold::AllSelected,
        Cold::Euler,
        Cold::AllSelected,
        last,
    ]
}

/// The benchmark's workloads.
#[derive(Clone, Copy)]
pub enum Workload {
    /// Closed loop over a warmed pool of iso-classes: per-request fixed
    /// cost (transport, parse, registry, admission, cache keying).
    WarmHits,
    /// Pipelined flights of new iso-classes: the game backend, batching,
    /// and cache inserts.
    ColdSolve,
    /// Open loop over a blend of every query kind: lint, reductions, the
    /// large-output emit path, and queueing under arrivals.
    MixedOpen,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "warm_hits" => Some(Workload::WarmHits),
            "cold_solve" => Some(Workload::ColdSolve),
            "mixed_open" => Some(Workload::MixedOpen),
            _ => None,
        }
    }
}

/// How the load generator drives the streams.
pub enum Shape {
    /// One client per stream, each writing a flight of `depth` requests
    /// and waiting for all of their responses before the next flight. A
    /// wrapping stream starts over at its end.
    Closed { depth: usize, wrap: bool },
    /// One client writing request `i` at `due[i]` seconds after the
    /// start, whatever has been answered, and a reader taking the
    /// responses as they come.
    Open { due: Vec<f64> },
}

/// A generated workload.
pub struct Plan {
    pub shape: Shape,
    /// Untimed requests sent first, to seed the cache.
    pub warmup: Vec<Req>,
    /// One request stream per connection.
    pub streams: Vec<Vec<Req>>,
    /// Requests appended to the in-process replay so that every layer is
    /// timed on every workload.
    pub tail: Vec<Req>,
}

/// One request line and the answer it must get.
pub struct Req {
    pub line: String,
    /// The id the response must carry (`None`: a `null` id).
    pub id: Option<String>,
    pub expect: Expect,
}

/// The answer a request must get.
pub enum Expect {
    /// A membership verdict (`eve_wins`).
    Verdict(bool),
    /// An error response with this code.
    Error(&'static str),
    /// A lint response with no diagnostics.
    LintClean,
    /// An `all_selected_to_eulerian` output: Eulerian iff the input was
    /// all-selected.
    Eulerian(bool),
    /// The registry listing: 9 arbiters and 7 reductions.
    List,
}

impl Req {
    /// Checks a response line against the wire schema and the oracle.
    pub fn check(&self, response: &str) -> Result<(), String> {
        let v = Json::parse(response).map_err(|e| format!("unparseable response: {e}"))?;
        validate_serve_response(&v).map_err(|e| format!("invalid response ({e}): {response}"))?;
        let id = self.id.clone().map_or(Json::Null, Json::Str);
        if v.get("id") != Some(&id) {
            return Err(format!("expected id {id}: {response}"));
        }
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        let right = match (&self.expect, code) {
            (Expect::Error(want), got) => got == Some(*want),
            (_, Some(_)) => false,
            (Expect::Verdict(want), None) => v.get("eve_wins") == Some(&Json::Bool(*want)),
            (Expect::LintClean, None) => v.get("failures") == Some(&Json::Num(0.0)),
            (Expect::Eulerian(want), None) => {
                v.get("output").and_then(all_degrees_even) == Some(*want)
            }
            (Expect::List, None) => {
                let len = |key: &str| v.get(key).and_then(Json::as_arr).map(<[Json]>::len);
                len("arbiters") == Some(9) && len("reductions") == Some(7)
            }
        };
        if right {
            Ok(())
        } else {
            let line: String = self.line.chars().take(200).collect();
            let response: String = response.chars().take(400).collect();
            Err(format!("wrong answer to {line}: {response}"))
        }
    }
}

/// Whether every node of an explicit-form graph has even degree (`None`
/// when the value is not a well-formed graph).
fn all_degrees_even(g: &Json) -> Option<bool> {
    let n = g.get("labels")?.as_arr()?.len();
    let mut degree = vec![0usize; n];
    for edge in g.get("edges")?.as_arr()? {
        for end in edge.as_arr()? {
            match end {
                Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && (*x as usize) < n => {
                    degree[*x as usize] += 1;
                }
                _ => return None,
            }
        }
    }
    Some(degree.iter().all(|d| d % 2 == 0))
}

/// A connected graph with `0`/`1` labels, as the generator builds it.
#[derive(Clone)]
struct Graph {
    selected: Vec<bool>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    fn cycle(n: usize) -> Graph {
        Graph {
            selected: vec![true; n],
            edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        }
    }

    /// A cycle plus `k` chords with pairwise distinct endpoints, so no
    /// node has degree above 3.
    fn chorded_cycle(n: usize, k: usize, rng: &mut XorShift) -> Graph {
        assert!(4 * k <= n, "{k} chords do not fit a {n}-cycle");
        let mut g = Graph::cycle(n);
        let mut used = vec![false; n];
        while g.edges.len() < n + k {
            let (a, b) = (rng.below(n), rng.below(n));
            let gap = (a + n - b) % n;
            if !used[a] && !used[b] && gap > 1 && gap < n - 1 {
                used[a] = true;
                used[b] = true;
                g.edges.push((a, b));
            }
        }
        g
    }

    /// Unselects `z` distinct nodes chosen at random.
    fn unselect(mut self, z: usize, rng: &mut XorShift) -> Graph {
        let mut order: Vec<usize> = (0..self.selected.len()).collect();
        shuffle(&mut order, rng);
        for &u in order.iter().take(z) {
            self.selected[u] = false;
        }
        self
    }

    fn degrees(&self) -> Vec<usize> {
        let mut degree = vec![0; self.selected.len()];
        for &(a, b) in &self.edges {
            degree[a] += 1;
            degree[b] += 1;
        }
        degree
    }

    fn all_selected(&self) -> bool {
        self.selected.iter().all(|&s| s)
    }

    fn labeled(&self) -> LabeledGraph {
        let labels = self
            .selected
            .iter()
            .map(|&s| BitString::from_bits01(if s { "1" } else { "0" }))
            .collect();
        LabeledGraph::from_edges(labels, &self.edges).expect("generated graphs are valid")
    }

    /// The invariants the service's cache bucket key is built from.
    fn signature(&self, context: &str) -> String {
        let mut multiset: Vec<(usize, bool)> = self
            .degrees()
            .into_iter()
            .zip(self.selected.iter().copied())
            .collect();
        multiset.sort_unstable();
        let (n, m) = (self.selected.len(), self.edges.len());
        format!("{context}|{n}|{m}|{multiset:?}")
    }

    /// The explicit labels/edges form; with `rng`, under a random node
    /// numbering and edge order.
    fn json(&self, rng: Option<&mut XorShift>) -> String {
        let n = self.selected.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut edges = self.edges.clone();
        if let Some(rng) = rng {
            shuffle(&mut perm, rng);
            shuffle(&mut edges, rng);
            for e in &mut edges {
                if rng.bool() {
                    *e = (e.1, e.0);
                }
            }
        }
        let mut labels = vec![true; n];
        for (u, &s) in self.selected.iter().enumerate() {
            labels[perm[u]] = s;
        }
        let mut out = String::from("{\"labels\":[");
        for (i, &s) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(if s { "\"1\"" } else { "\"0\"" });
        }
        out.push_str("],\"edges\":[");
        for (i, &(a, b)) in edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", perm[a], perm[b]);
        }
        out.push_str("]}");
        out
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut XorShift) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut XorShift) -> f64 {
    (rng.next() >> 11) as f64 / (1u64 << 53) as f64
}

/// The membership oracle.
fn verdict(arbiter: &str, g: &Graph) -> bool {
    match arbiter {
        "two_colorable_verifier" => is_k_colorable(&g.labeled(), 2),
        "three_colorable_verifier" => is_k_colorable(&g.labeled(), 3),
        "eulerian_decider" => g.degrees().iter().all(|d| d % 2 == 0),
        "all_selected_decider" | "all_selected_pi1" => g.all_selected(),
        other => unreachable!("no oracle for {other}"),
    }
}

/// A membership iso-class: its requests are relabelings of `graph`.
struct Class {
    arbiter: &'static str,
    exec: Option<&'static str>,
    graph: Graph,
    verdict: bool,
}

struct Gen {
    rng: XorShift,
    seen: HashSet<String>,
    ids: usize,
}

impl Gen {
    fn id(&mut self) -> String {
        self.ids += 1;
        format!("q{}", self.ids)
    }

    /// A new class from `make`, with `z0` nodes unselected and one more
    /// on each retry until its signature is new.
    fn class(
        &mut self,
        arbiter: &'static str,
        exec: Option<&'static str>,
        z0: usize,
        make: impl Fn(&mut XorShift) -> Graph,
    ) -> Class {
        let context = format!("{arbiter}|{}", exec.unwrap_or("auto"));
        for z in z0..z0 + 64 {
            let graph = make(&mut self.rng).unselect(z, &mut self.rng);
            if self.seen.insert(graph.signature(&context)) {
                let verdict = verdict(arbiter, &graph);
                return Class {
                    arbiter,
                    exec,
                    graph,
                    verdict,
                };
            }
        }
        panic!("no new {context} class near z = {z0}");
    }

    /// A membership request for `class`, node-permuted when `relabel`.
    fn membership(&mut self, class: &Class, relabel: bool) -> Req {
        let graph = class.graph.json(relabel.then_some(&mut self.rng));
        let exec = class
            .exec
            .map_or(String::new(), |e| format!(",\"exec\":\"{e}\""));
        let body = format!(
            "\"kind\":\"membership\",\"arbiter\":\"{}\",\"graph\":{graph}{exec}",
            class.arbiter
        );
        self.line(&body, Expect::Verdict(class.verdict))
    }

    /// A request object with a fresh id in front of `body`.
    fn line(&mut self, body: &str, expect: Expect) -> Req {
        let id = self.id();
        Req {
            line: format!("{{\"id\":\"{id}\",{body}}}"),
            id: Some(id),
            expect,
        }
    }

    /// A membership request designed to be shed by admission control.
    fn shed(&mut self) -> Req {
        if self.rng.bool() {
            // The eulerian decider's certified price crosses the default
            // budget near n = 190.
            self.line(
                r#""kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":256}"#,
                Expect::Error("over_budget"),
            )
        } else {
            // Over the default 512-node cap, whatever the arbiter.
            let arbiter = CHEAP[self.rng.below(CHEAP.len())];
            let n = 513 + self.rng.below(200);
            self.line(
                &format!(
                    r#""kind":"membership","arbiter":"{arbiter}","graph":{{"family":"cycle","n":{n}}}"#
                ),
                Expect::Error("over_budget"),
            )
        }
    }

    /// Classes for every cheap arbiter under both execution tiers:
    /// `per_tier` chorded cycles of `lo..=hi` nodes each.
    fn pool(&mut self, per_tier: usize, lo: usize, hi: usize) -> Vec<Class> {
        let mut pool = Vec::new();
        for arbiter in CHEAP {
            for exec in ["interpreted", "compiled"] {
                for _ in 0..per_tier {
                    let n = lo + self.rng.below(hi - lo + 1);
                    let k = self.rng.below(3).min(n / 4);
                    let z0 = if arbiter == "all_selected_decider" {
                        self.rng.below(3)
                    } else {
                        0
                    };
                    let class = self.class(arbiter, Some(exec), z0, |rng| {
                        Graph::chorded_cycle(n, k, rng)
                    });
                    pool.push(class);
                }
            }
        }
        pool
    }

    /// One request per layer, so that the replay times every layer on
    /// every workload: a CDCL refutation (2-colouring an odd cycle) and a
    /// hit on it, a TM decision, an arbiter lint and a deep reduction
    /// lint, a reduction, a listing, a shed, and a line that is not JSON.
    fn tail(&mut self) -> Vec<Req> {
        let odd = self.class("two_colorable_verifier", None, 0, |_| Graph::cycle(11));
        let even = self.class("eulerian_decider", None, 0, |_| Graph::cycle(12));
        vec![
            self.membership(&odd, false),
            self.membership(&odd, true),
            self.membership(&even, false),
            self.line(
                r#""kind":"lint","target":"arbiter:two_colorable_verifier","graph":{"family":"cycle","n":6}"#,
                Expect::LintClean,
            ),
            self.line(
                r#""kind":"lint","target":"reduction:all_selected_to_eulerian","graph":{"family":"cycle","n":5},"deep":true"#,
                Expect::LintClean,
            ),
            self.line(
                r#""kind":"reduction","reduction":"all_selected_to_eulerian","graph":{"family":"cycle","n":6}"#,
                Expect::Eulerian(true),
            ),
            self.line(r#""kind":"list""#, Expect::List),
            self.shed(),
            Req {
                line: "this line is not JSON".to_owned(),
                id: None,
                expect: Expect::Error("parse_error"),
            },
        ]
    }

    /// The `r`-th `cold_solve` class of `kind`. Sizes step through a
    /// fixed range by a stride coprime to its length, so any stretch of
    /// flights costs about the same whatever the seed; the seed places
    /// the chords and the unselected nodes, and numbers the nodes.
    ///
    /// The 3-colouring instances are plain even cycles, whose cost the
    /// size sets to within a few percent; one chord at a random place
    /// already spreads it over a factor of two, and a `K4` (the only
    /// non-3-colourable graph of degree at most 3) costs about a second,
    /// enough to set a run's throughput and p99 alone. So they are all
    /// colourable, and the refutations come from odd 2-colouring instances
    /// and all-selected `all_selected_pi1` ones.
    fn cold_class(&mut self, kind: Cold, r: usize) -> Class {
        let chorded =
            |n: usize, k: usize| move |rng: &mut XorShift| Graph::chorded_cycle(n, k, rng);
        // The all-selected arbiters alternate between yes and no instances.
        let unselected = usize::from(r % 2 == 1);
        match kind {
            Cold::Three => {
                let (n, z) = plain_cycle_class(r);
                self.class("three_colorable_verifier", None, z, chorded(n, 0))
            }
            Cold::TwoBig => self.class(
                "two_colorable_verifier",
                None,
                0,
                chorded(64 + (r * 17) % 37, (r / 37) % 7),
            ),
            Cold::TwoMid => self.class(
                "two_colorable_verifier",
                None,
                0,
                chorded(24 + (r * 17) % 40, (r / 40) % 6),
            ),
            Cold::Pi1 => self.class(
                "all_selected_pi1",
                None,
                unselected,
                chorded(16 + (r * 19) % 49, 0),
            ),
            Cold::Euler => self.class(
                "eulerian_decider",
                None,
                0,
                chorded(40 + (r * 37) % 121, (r / 121) % 5),
            ),
            Cold::AllSelected => self.class(
                "all_selected_decider",
                None,
                unselected,
                chorded(40 + (r * 41) % 121, (r / 121) % 3),
            ),
        }
    }

    /// A new class for `mixed_open`'s misses: cheap TM and CDCL decisions,
    /// kept small because at this arrival rate one slow request delays
    /// every request queued behind it. With 2-colouring instances of up to
    /// 28 nodes the slowest misses made the p99 tail alone; at up to 20
    /// they cost a few milliseconds. Each retry draws a new size as well,
    /// so no one size runs out of classes.
    fn miss(&mut self, i: usize) -> Req {
        let (arbiter, lo, span, chords) = if i.is_multiple_of(2) {
            ("all_selected_decider", 8, 57, 3)
        } else {
            ("two_colorable_verifier", 8, 13, 2)
        };
        let z0 = if i.is_multiple_of(2) {
            self.rng.below(2)
        } else {
            0
        };
        let class = self.class(arbiter, None, z0, move |rng| {
            let n = lo + rng.below(span);
            Graph::chorded_cycle(n, rng.below(chords), rng)
        });
        self.membership(&class, true)
    }

    /// A lint of a registered artifact on a probe shaped like the
    /// corpus's own (small all-selected cycles), so it must come back
    /// clean.
    fn lint(&mut self) -> Req {
        let n = 4 + self.rng.below(7);
        let body = if self.rng.below(3) == 0 {
            let arbiter = CHEAP[self.rng.below(CHEAP.len())];
            format!(
                r#""kind":"lint","target":"arbiter:{arbiter}","graph":{{"family":"cycle","n":{n}}}"#
            )
        } else {
            let reduction =
                ["all_selected_to_eulerian", "all_selected_to_hamiltonian"][self.rng.below(2)];
            let deep = self.rng.bool();
            format!(
                r#""kind":"lint","target":"reduction:{reduction}","graph":{{"family":"cycle","n":{n}}},"deep":{deep}"#
            )
        };
        self.line(&body, Expect::LintClean)
    }

    /// An `all_selected_to_eulerian` reduction of a chorded cycle of up
    /// to 128 nodes (so up to 256 output nodes), all-selected half the
    /// time.
    fn reduction(&mut self) -> Req {
        let n = 16 + self.rng.below(113);
        let k = self.rng.below(n / 8);
        let z = if self.rng.bool() {
            0
        } else {
            1 + self.rng.below(2)
        };
        let g = Graph::chorded_cycle(n, k, &mut self.rng).unselect(z, &mut self.rng);
        let graph = g.json(Some(&mut self.rng));
        self.line(
            &format!(
                r#""kind":"reduction","reduction":"all_selected_to_eulerian","graph":{graph}"#
            ),
            Expect::Eulerian(g.all_selected()),
        )
    }

    /// A line the service must refuse: malformed (`parse_error`) or
    /// naming an unknown artifact (`unknown_artifact`).
    fn bad(&mut self) -> Req {
        let anonymous = |line: &str| Req {
            line: line.to_owned(),
            id: None,
            expect: Expect::Error("parse_error"),
        };
        match self.rng.below(7) {
            0 => anonymous(r#"{"id":"cut","kind":"membership","arbiter":"#),
            1 => anonymous(r#"{"kind":"list"}"#),
            2 => self.line(r#""kind":"frobnicate""#, Expect::Error("parse_error")),
            3 => self.line(
                r#""kind":"membership","arbiter":"eulerian_decider""#,
                Expect::Error("parse_error"),
            ),
            4 => self.line(
                r#""kind":"membership","arbiter":"eulerian_decider","graph":{"family":"wheel","n":5}"#,
                Expect::Error("parse_error"),
            ),
            5 => self.line(
                r#""kind":"membership","arbiter":"no_such_arbiter","graph":{"family":"cycle","n":5}"#,
                Expect::Error("unknown_artifact"),
            ),
            _ => self.line(
                r#""kind":"reduction","reduction":"no_such_reduction","graph":{"family":"cycle","n":5}"#,
                Expect::Error("unknown_artifact"),
            ),
        }
    }
}

/// Generates `workload`'s requests from `seed`; `seconds` sizes the
/// open-loop schedule.
pub fn plan(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let mut gen = Gen {
        rng: XorShift::new(seed),
        seen: HashSet::new(),
        ids: 0,
    };
    let tail = gen.tail();
    match workload {
        Workload::WarmHits => {
            // Pool graphs stay at 20 nodes or fewer: the exact isomorphism
            // confirm behind every hit is unbudgeted backtracking.
            let pool = gen.pool(4, 8, 20);
            let warmup = pool.iter().map(|c| gen.membership(c, false)).collect();
            let streams = (0..WARM_CONNECTIONS)
                .map(|_| {
                    (0..WARM_STREAM)
                        .map(|_| {
                            if gen.rng.below(10) == 0 {
                                gen.shed()
                            } else {
                                let class = &pool[gen.rng.below(pool.len())];
                                gen.membership(class, true)
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            Plan {
                shape: Shape::Closed {
                    depth: 1,
                    wrap: true,
                },
                warmup,
                streams,
                tail,
            }
        }
        Workload::ColdSolve => {
            // How many classes of each `Cold` kind the stream has used.
            let mut uses = [0usize; 6];
            let mut stream = Vec::with_capacity(COLD_STREAM);
            for f in 0..COLD_STREAM / FLIGHT {
                for kind in cold_flight(f) {
                    let class = gen.cold_class(kind, uses[kind as usize]);
                    uses[kind as usize] += 1;
                    stream.push(gen.membership(&class, true));
                }
            }
            Plan {
                shape: Shape::Closed {
                    depth: FLIGHT,
                    wrap: false,
                },
                warmup: Vec::new(),
                streams: vec![stream],
                tail,
            }
        }
        Workload::MixedOpen => {
            let pool = gen.pool(2, 8, 16);
            let warmup = pool.iter().map(|c| gen.membership(c, false)).collect();
            let count = (OPEN_RATE * seconds).ceil() as usize + 1;
            let mut due = Vec::with_capacity(count);
            let mut stream = Vec::with_capacity(count);
            let (mut t, mut misses) = (0.0, 0);
            for _ in 0..count {
                // Gaps uniform in [0.5, 1.5] times the mean: a fixed rate
                // with seeded jitter.
                t += (0.5 + unit(&mut gen.rng)) / OPEN_RATE;
                due.push(t);
                let req = match gen.rng.below(100) {
                    0..=34 => {
                        let class = &pool[gen.rng.below(pool.len())];
                        gen.membership(class, true)
                    }
                    35..=49 => {
                        misses += 1;
                        gen.miss(misses)
                    }
                    50..=61 => gen.lint(),
                    62..=73 => gen.reduction(),
                    74..=79 => gen.line(r#""kind":"list""#, Expect::List),
                    80..=87 => gen.shed(),
                    _ => gen.bad(),
                };
                stream.push(req);
            }
            Plan {
                shape: Shape::Open { due },
                warmup,
                streams: vec![stream],
                tail,
            }
        }
    }
}
