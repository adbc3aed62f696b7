//! The CNF certificate-game backend: compiles `ℓ ≤ 1` games to SAT and
//! decides them with the `lph-sat` CDCL solver, scaling far beyond the
//! exhaustive move enumeration of [`decide_game`].
//!
//! # How the compilation works
//!
//! An arbiter is a LOCAL machine, so after `R` rounds a node's verdict
//! depends only on the inputs (labels, identifiers, degrees, certificates)
//! of nodes within distance `R − 1` — round-1 inboxes are empty, and a
//! message sent in round `k` arrives in round `k + 1`. The backend
//! exploits this: for each node `v` it extracts the ball `N_R(v)` (whose
//! interior nodes keep their degrees), replays the arbiter on that small
//! subgraph once for **every** combination of certificates of the inner
//! ball `N_{R−1}(v)`, and records `v`'s verdict. The radius is discovered
//! adaptively: a replay that runs more than `R` rounds bumps `R`. Arbiters
//! that never stabilize are reported as [`GameError::BackendUnsupported`]
//! rather than silently mis-encoded.
//!
//! Boundary-ring certificates (distance exactly `R`) stay empty. This is
//! the **locality lemma**: a centre that halts at round `t ≤ R` depends
//! only on inputs within distance `t − 1 ≤ R − 1`, and those nodes keep
//! their full degree, ids and port order inside the ball, while node
//! programs share no state — so no ring certificate reaches the verdict.
//!
//! The per-node truth tables then compile to CNF over choice variables
//! (each node's certificate choice is a binary-coded index into its
//! `(r, p)`-bounded option list, with out-of-range codes blocked):
//!
//! * **`Σ₁`** (Eve moves once): one blocking clause per *rejecting* table
//!   row. A model is exactly an assignment every node accepts; `UNSAT`
//!   means Eve has no witness.
//! * **`Π₁`** (Adam moves once): one fresh selector variable `r_v` per
//!   node with `∨_v r_v`, and a clause `¬r_v ∨ ¬row` per *accepting* row.
//!   A model is an assignment some selected node rejects — Adam's
//!   refutation; `UNSAT` means Eve wins every play.
//!
//! Either way, the extracted witness is replayed through the arbiter **on
//! the full graph** before the result is returned — the truth tables are
//! an optimization, never the authority.
//!
//! The UNSAT side is certified too: the solver runs with proof logging
//! on, and the logged RUP refutation is re-derived by the independent
//! `lph_sat::checker` before the verdict is returned. The verdict carries
//! the outcome as [`RefutationEvidence`] — [`GameBackend::Auto`] treats a
//! failed check like an unsupported game and falls back to the exhaustive
//! oracle, so an unchecked refutation never silently decides a game.
//!
//! `Σ₀` games have no certificates and run the arbiter once. Games with
//! `ℓ ≥ 2` are quantified-Boolean, not propositional; they stay on the
//! exhaustive game-tree search ([`GameBackend::Auto`] falls back
//! automatically).

use lph_graphs::{
    enumerate, BitString, CertificateAssignment, CertificateList, IdAssignment, LabeledGraph,
    NodeId,
};
use lph_machine::LocalOutcome;
use lph_sat::{check_refutation, Cnf, Lit, SolveOutcome, Solver, SolverConfig};

use crate::arbiter::Arbitrating;
use crate::class::Player;
use crate::game::{decide_game, GameError, GameLimits, GameResult};

/// Hard cap on the number of certificate combinations replayed per node
/// while building its local acceptance table. Beyond this the compilation
/// is no cheaper than exhaustive search and the backend bows out. Sized
/// so a degree-5 ball of 3-coloring certificates (7⁶ ≈ 118k rows) still
/// compiles — the per-node table is what makes the whole-graph move
/// space (7ⁿ) tractable, so the cap only guards genuinely global balls.
const TABLE_COMBO_CAP: usize = 1 << 17;

/// Cap on the adaptive locality radius probe.
const MAX_RADIUS: usize = 8;

/// Which engine decides a certificate game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GameBackend {
    /// The exhaustive game-tree search of [`decide_game`]: enumerates
    /// every move. Complete for all `ℓ`, but bounded by the move-space
    /// guard — this is the differential oracle for small instances.
    Exhaustive,
    /// The CNF compilation described in the module docs, decided by the
    /// `lph-sat` CDCL solver. `ℓ ≤ 1` only; errors with
    /// [`GameError::BackendUnsupported`] where it does not apply.
    Cdcl,
    /// [`GameBackend::Cdcl`] for `ℓ = 1` games, falling back to
    /// [`GameBackend::Exhaustive`] whenever the CNF backend reports
    /// [`GameError::BackendUnsupported`] (and for all other `ℓ`).
    #[default]
    Auto,
}

impl GameBackend {
    /// The stable wire name used by external callers (the `lph-serve/1`
    /// protocol's optional `"backend"` request field).
    pub fn as_str(self) -> &'static str {
        match self {
            GameBackend::Exhaustive => "exhaustive",
            GameBackend::Cdcl => "cdcl",
            GameBackend::Auto => "auto",
        }
    }

    /// Parses a wire name produced by [`GameBackend::as_str`].
    pub fn parse(s: &str) -> Option<GameBackend> {
        match s {
            "exhaustive" => Some(GameBackend::Exhaustive),
            "cdcl" => Some(GameBackend::Cdcl),
            "auto" => Some(GameBackend::Auto),
            _ => None,
        }
    }
}

/// How an UNSAT-side verdict of the CDCL backend is certified.
///
/// Attached to [`GameResult::refutation`] whenever the verdict rests on
/// the solver's refutation rather than a replayed witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefutationEvidence {
    /// The independent RUP checker re-derived the solver's refutation
    /// from the game CNF.
    Checked {
        /// Steps in the logged proof (learned clauses + the empty clause).
        proof_steps: usize,
        /// Literals the checker assigned while re-deriving the steps.
        rup_propagations: u64,
    },
    /// The checker rejected (or could not complete) the refutation; the
    /// verdict is the solver's word alone. [`GameBackend::Auto`] discards
    /// such results and re-decides exhaustively.
    Unchecked {
        /// Whether the failure says the proof is about a *different*
        /// formula (unknown variables / deletions of absent clauses), as
        /// opposed to a derivation gap.
        cnf_mismatch: bool,
        /// The checker's error, human-readable.
        reason: String,
    },
}

impl RefutationEvidence {
    /// Whether the evidence is a checker-accepted proof.
    pub fn is_checked(&self) -> bool {
        matches!(self, RefutationEvidence::Checked { .. })
    }
}

/// Solves the certificate game with the selected [`GameBackend`].
///
/// Agrees with [`decide_game`] on `eve_wins` wherever both apply; the
/// CDCL backend additionally certifies any `Some` `winning_first_move` by
/// replaying it through the arbiter on the full graph.
///
/// # Errors
///
/// Returns [`GameError`] as for [`decide_game`]; the `Cdcl` backend
/// additionally reports [`GameError::BackendUnsupported`] for games it
/// cannot compile (`ℓ ≥ 2`, oversized local tables, arbiters without
/// per-node outcomes or with unstable locality).
pub fn decide_game_backend(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    limits: &GameLimits,
    backend: GameBackend,
) -> Result<GameResult, GameError> {
    match backend {
        GameBackend::Exhaustive => decide_game(arbiter, g, id, limits),
        GameBackend::Cdcl => decide_game_cdcl(arbiter, g, id, limits),
        GameBackend::Auto => {
            if arbiter.spec().ell != 1 {
                return decide_game(arbiter, g, id, limits);
            }
            match decide_game_cdcl(arbiter, g, id, limits) {
                Err(GameError::BackendUnsupported { .. }) => decide_game(arbiter, g, id, limits),
                // An unchecked refutation is not evidence: re-decide with
                // the exhaustive oracle rather than trust the solver.
                Ok(r) if matches!(r.refutation, Some(RefutationEvidence::Unchecked { .. })) => {
                    decide_game(arbiter, g, id, limits)
                }
                other => other,
            }
        }
    }
}

/// One node's local acceptance table: `verdicts[rank]` is the node's
/// verdict when the nodes of `support` hold the certificate options coded
/// by `rank` (mixed-radix, first support node most significant).
struct NodeTable {
    support: Vec<NodeId>,
    verdicts: Vec<bool>,
}

/// The binary choice encoding: node `u`'s certificate option index is the
/// little-endian value of variables `var_base[u] .. var_base[u] + bits[u]`.
struct Encoding {
    cnf: Cnf,
    var_base: Vec<usize>,
    bits: Vec<usize>,
}

fn ceil_log2(m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        (usize::BITS - (m - 1).leading_zeros()) as usize
    }
}

/// Mixed-radix decode of `rank` into one digit per entry of `ms` (first
/// entry most significant) — the shared convention between table building
/// and clause emission.
fn combo_digits(rank: usize, ms: &[usize]) -> Vec<usize> {
    let mut digits = vec![0; ms.len()];
    let mut code = rank;
    for i in (0..ms.len()).rev() {
        digits[i] = code % ms[i];
        code /= ms[i];
    }
    digits
}

fn run_outcome(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    certs: Vec<BitString>,
    limits: &GameLimits,
    runs: &mut u64,
) -> Result<LocalOutcome, GameError> {
    *runs += 1;
    if *runs > limits.max_runs {
        return Err(GameError::BudgetExceeded {
            limit: limits.max_runs,
        });
    }
    let assignment = CertificateAssignment::from_vec(g, certs).expect("one certificate per node");
    let list = CertificateList::new().extended(assignment);
    arbiter
        .outcome(g, id, &list, &limits.exec)?
        .ok_or_else(|| GameError::BackendUnsupported {
            reason: "arbiter does not report per-node outcomes".into(),
        })
}

/// Builds the local acceptance table of node `v`, discovering the needed
/// radius adaptively (see the module docs).
fn build_table(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    options: &[Vec<BitString>],
    v: NodeId,
    limits: &GameLimits,
    runs: &mut u64,
) -> Result<NodeTable, GameError> {
    let mut radius = 1;
    'radius: loop {
        if radius > MAX_RADIUS {
            return Err(GameError::BackendUnsupported {
                reason: format!(
                    "locality of node {} did not stabilize within radius {MAX_RADIUS}",
                    v.0
                ),
            });
        }
        let ball = g.neighborhood(v, radius);
        let inner_ids = g.ball(v, radius - 1); // sorted
        let inner: Vec<usize> = (0..ball.members.len())
            .filter(|&i| inner_ids.binary_search(&ball.members[i]).is_ok())
            .collect();
        // No boundary ring: each replay IS the real run, lemma not needed.
        let whole_graph = inner.len() == ball.members.len();
        let ms: Vec<usize> = inner
            .iter()
            .map(|&i| options[ball.members[i].0].len())
            .collect();
        let combos = ms
            .iter()
            .try_fold(1usize, |acc, &m| {
                acc.checked_mul(m).filter(|&c| c <= TABLE_COMBO_CAP)
            })
            .ok_or_else(|| GameError::BackendUnsupported {
                reason: format!(
                    "local certificate table of node {} exceeds {TABLE_COMBO_CAP} rows",
                    v.0
                ),
            })?;
        let ids = ball.members.iter().map(|&w| id.id(w).clone()).collect();
        let sub_id = IdAssignment::from_vec(&ball.graph, ids).expect("one id per ball member");
        let mut verdicts = Vec::with_capacity(combos);
        for rank in 0..combos {
            let digits = combo_digits(rank, &ms);
            // Ring certificates stay empty (the locality lemma).
            let mut certs = vec![BitString::new(); ball.members.len()];
            for (d, &i) in digits.iter().zip(&inner) {
                certs[i] = options[ball.members[i].0][*d].clone();
            }
            let out = run_outcome(arbiter, &ball.graph, &sub_id, certs, limits, runs)?;
            if !whole_graph && out.rounds > radius {
                radius = out.rounds;
                continue 'radius;
            }
            verdicts.push(out.verdicts[ball.center_local.0]);
        }
        return Ok(NodeTable {
            support: inner.iter().map(|&i| ball.members[i]).collect(),
            verdicts,
        });
    }
}

/// Allocates the per-node choice variables and blocks out-of-range codes.
fn encode_choices(options: &[Vec<BitString>]) -> Encoding {
    let mut cnf = Cnf::new();
    let n = options.len();
    let mut var_base = vec![0; n];
    let mut bits = vec![0; n];
    for (u, opts) in options.iter().enumerate() {
        let m = opts.len();
        let k = ceil_log2(m);
        var_base[u] = cnf.new_vars(k);
        bits[u] = k;
        for bad in m..(1usize << k) {
            cnf.add_clause((0..k).map(|j| Lit::with_sign(var_base[u] + j, (bad >> j) & 1 == 0)));
        }
    }
    Encoding {
        cnf,
        var_base,
        bits,
    }
}

/// The clause asserting "the support's choices differ from this table
/// row": one literal per code bit, with the opposite polarity.
fn row_blocking_lits(
    table: &NodeTable,
    rank: usize,
    options: &[Vec<BitString>],
    enc: &Encoding,
) -> Vec<Lit> {
    let ms: Vec<usize> = table.support.iter().map(|u| options[u.0].len()).collect();
    let digits = combo_digits(rank, &ms);
    let mut clause = Vec::new();
    for (digit, &u) in digits.iter().zip(&table.support) {
        for j in 0..enc.bits[u.0] {
            let bit = (digit >> j) & 1 == 1;
            clause.push(Lit::with_sign(enc.var_base[u.0] + j, !bit));
        }
    }
    clause
}

/// Reads the certificate assignment chosen by a SAT model.
fn decode_model(
    model: &[bool],
    g: &LabeledGraph,
    options: &[Vec<BitString>],
    enc: &Encoding,
) -> CertificateAssignment {
    let certs: Vec<BitString> = options
        .iter()
        .enumerate()
        .map(|(u, opts)| {
            let mut code = 0usize;
            for j in 0..enc.bits[u] {
                if model[enc.var_base[u] + j] {
                    code |= 1 << j;
                }
            }
            opts[code].clone()
        })
        .collect();
    CertificateAssignment::from_vec(g, certs).expect("one certificate per node")
}

fn decide_game_cdcl(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    limits: &GameLimits,
) -> Result<GameResult, GameError> {
    let _span = lph_trace::span("game/cdcl");
    let spec = arbiter.spec().clone();
    if !id.is_locally_unique(g, spec.r_id) {
        return Err(GameError::IdsNotAdmissible { r_id: spec.r_id });
    }
    if spec.ell == 0 {
        let accepted = arbiter.accepts(g, id, &CertificateList::new(), &limits.exec)?;
        return Ok(GameResult {
            eve_wins: accepted,
            runs: 1,
            winning_first_move: None,
            refutation: None,
        });
    }
    if spec.ell > 1 {
        return Err(GameError::BackendUnsupported {
            reason: format!(
                "CNF compilation covers ℓ ≤ 1 games (ℓ ≥ 2 is quantified-Boolean), got ℓ = {}",
                spec.ell
            ),
        });
    }

    let budgets = spec.budgets(g, id, limits.cap_for_move(0));
    let options: Vec<Vec<BitString>> = budgets
        .iter()
        .map(|&b| enumerate::bitstrings_up_to(b))
        .collect();

    let mut runs = 0u64;
    let tables = {
        let _compile = lph_trace::span("game/cdcl_compile");
        let tables: Result<Vec<NodeTable>, GameError> = g
            .nodes()
            .map(|v| build_table(arbiter, g, id, &options, v, limits, &mut runs))
            .collect();
        lph_trace::add("game/table_runs", runs);
        tables?
    };

    // Σ₁ blocks every rejecting row; Π₁ blocks every accepting row behind
    // its node's selector, and at least one selector must hold.
    let eve_moves_first = spec.first == Player::Eve;
    let mut enc = encode_choices(&options);
    let selectors: Vec<Option<Lit>> = tables
        .iter()
        .map(|_| (!eve_moves_first).then(|| Lit::pos(enc.cnf.new_var())))
        .collect();
    if !eve_moves_first {
        enc.cnf.add_clause(selectors.iter().flatten().copied());
    }
    for (table, selector) in tables.iter().zip(&selectors) {
        for (rank, &ok) in table.verdicts.iter().enumerate() {
            if ok != eve_moves_first {
                let mut clause: Vec<Lit> = selector.iter().map(|s| s.negated()).collect();
                clause.extend(row_blocking_lits(table, rank, &options, &enc));
                enc.cnf.add_clause(clause);
            }
        }
    }
    lph_trace::add("game/cnf_vars", enc.cnf.num_vars() as u64);
    lph_trace::add("game/cnf_clauses", enc.cnf.clauses().len() as u64);

    let mut solver = Solver::with_config(
        &enc.cnf,
        SolverConfig {
            max_conflicts: Some(limits.max_runs),
            proof_log: true,
            ..SolverConfig::default()
        },
    );
    match solver.solve() {
        SolveOutcome::Unknown => Err(GameError::BudgetExceeded {
            limit: limits.max_runs,
        }),
        SolveOutcome::Unsat => {
            // Certify the refutation: the independent checker re-derives
            // the solver's proof from the game CNF, so "no witness" is
            // never taken on the solver's word alone.
            let proof = solver.take_proof().expect("proof logging is on");
            let evidence = match check_refutation(&enc.cnf, &proof) {
                Ok(stats) => RefutationEvidence::Checked {
                    proof_steps: proof.len(),
                    rup_propagations: stats.propagations,
                },
                Err(e) => RefutationEvidence::Unchecked {
                    cnf_mismatch: e.is_cnf_mismatch(),
                    reason: e.to_string(),
                },
            };
            lph_trace::add("game/refutations_checked", u64::from(evidence.is_checked()));
            Ok(GameResult {
                eve_wins: !eve_moves_first,
                runs,
                winning_first_move: None,
                refutation: Some(evidence),
            })
        }
        SolveOutcome::Sat(model) => {
            let assignment = decode_model(&model, g, &options, &enc);
            // Certify the witness on the full graph: the local tables are
            // an optimization, the arbiter is the authority.
            runs += 1;
            let list = CertificateList::new().extended(assignment.clone());
            let accepted = arbiter.accepts(g, id, &list, &limits.exec)?;
            if accepted != eve_moves_first {
                return Err(GameError::BackendUnsupported {
                    reason: "extracted certificate assignment failed its arbiter replay — \
                             the local acceptance tables are not faithful for this arbiter"
                        .into(),
                });
            }
            Ok(GameResult {
                eve_wins: eve_moves_first,
                runs,
                winning_first_move: Some(assignment),
                refutation: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiters;
    use lph_graphs::generators;

    #[test]
    fn backend_wire_names_round_trip() {
        for b in [
            GameBackend::Exhaustive,
            GameBackend::Cdcl,
            GameBackend::Auto,
        ] {
            assert_eq!(GameBackend::parse(b.as_str()), Some(b));
        }
        assert_eq!(GameBackend::parse("sat"), None);
    }

    #[test]
    fn cdcl_agrees_with_exhaustive_on_three_coloring() {
        for (g, colorable) in [
            (generators::cycle(4), true),
            (generators::cycle(5), true),
            (generators::complete(3), true),
            (generators::complete(4), false),
        ] {
            let arb = arbiters::three_colorable_verifier();
            let id = IdAssignment::global(&g);
            let limits = GameLimits::default();
            let ex = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive).unwrap();
            let sat = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap();
            assert_eq!(ex.eve_wins, colorable);
            assert_eq!(sat.eve_wins, colorable, "CDCL disagrees on {g:?}");
            assert!(ex.refutation.is_none(), "exhaustive results carry none");
            if colorable {
                assert!(sat.winning_first_move.is_some());
                assert!(sat.refutation.is_none(), "witness verdicts carry none");
            } else {
                // Σ₁-no: the verdict must come with a checked refutation.
                let ev = sat.refutation.expect("UNSAT verdicts carry evidence");
                assert!(ev.is_checked(), "refutation not checked: {ev:?}");
            }
        }
    }

    #[test]
    fn pi1_yes_verdicts_carry_checked_refutations() {
        // ALL-SELECTED on an all-ones cycle: Eve wins the Π₁ game, which
        // the CDCL side establishes via UNSAT of the rejection encoding.
        use lph_graphs::BitString;
        let arb = arbiters::all_selected_pi1();
        let base = generators::cycle(5);
        let ones = vec![BitString::from_bits01("1"); base.node_count()];
        let g = base.with_labels(ones).expect("arity matches");
        let id = IdAssignment::global(&g);
        let res =
            decide_game_backend(&arb, &g, &id, &GameLimits::default(), GameBackend::Cdcl).unwrap();
        assert!(res.eve_wins);
        let ev = res.refutation.expect("Π₁-yes rests on an UNSAT answer");
        assert!(ev.is_checked(), "refutation not checked: {ev:?}");
        match ev {
            RefutationEvidence::Checked {
                proof_steps,
                rup_propagations,
            } => {
                assert!(proof_steps >= 1);
                assert!(rup_propagations > 0);
            }
            RefutationEvidence::Unchecked { .. } => unreachable!("is_checked held"),
        }
    }

    #[test]
    fn cdcl_scales_past_the_exhaustive_move_guard() {
        // Cycles of 60 and 120 nodes: the Σ₁ move space is 7ⁿ, far past the
        // exhaustive enumerator's 2²⁰ guard — but 3-coloring tables are 343
        // rows per node and CDCL settles the game in n · (1 + 7³) + 1 runs:
        // per node one radius-1 probe that bumps the radius and one replay
        // per table row, plus the witness replay on the full graph.
        let arb = arbiters::three_colorable_verifier();
        let limits = GameLimits::default();
        for (n, runs) in [(6, 2065), (60, 20641), (120, 41281)] {
            let g = generators::cycle(n);
            let id = IdAssignment::global(&g);
            if n > 6 {
                let err = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive);
                assert!(matches!(err, Err(GameError::MoveSpaceTooLarge { .. })));
            }
            let res = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap();
            assert!(res.eve_wins, "even cycles are 3-colorable");
            assert!(res.winning_first_move.is_some());
            assert_eq!(res.runs, runs, "C{n}");
        }
    }

    /// The former two-padding replay, kept as a test-only oracle: each row
    /// runs with the boundary-ring certificates empty (padding A) and
    /// all-ones at budget (padding B). Returns the padding-A table and the
    /// number of rows where the centre halted within the radius under A
    /// but B changed its verdict — the locality lemma says none.
    fn two_padding_table(
        arb: &dyn Arbitrating,
        g: &LabeledGraph,
        id: &IdAssignment,
        options: &[Vec<BitString>],
        v: NodeId,
    ) -> (NodeTable, usize) {
        let (limits, mut runs, mut disagreements) = (GameLimits::default(), 0, 0);
        let mut radius = 1;
        'radius: loop {
            let ball = g.neighborhood(v, radius);
            let inner_ids = g.ball(v, radius - 1);
            let (inner, ring): (Vec<usize>, Vec<usize>) =
                (0..ball.members.len()).partition(|&i| inner_ids.contains(&ball.members[i]));
            let opts = |i: usize| &options[ball.members[i].0];
            let ms: Vec<usize> = inner.iter().map(|&i| opts(i).len()).collect();
            let ids = ball.members.iter().map(|&w| id.id(w).clone()).collect();
            let sub_id = IdAssignment::from_vec(&ball.graph, ids).unwrap();
            let mut verdicts = Vec::new();
            for rank in 0..ms.iter().product() {
                let mut certs = vec![BitString::new(); ball.members.len()];
                for (d, &i) in combo_digits(rank, &ms).iter().zip(&inner) {
                    certs[i] = opts(i)[*d].clone();
                }
                let mut certs_b = certs.clone();
                for &i in &ring {
                    certs_b[i] = opts(i).last().unwrap().clone(); // all-ones at budget
                }
                let mut run = |c| run_outcome(arb, &ball.graph, &sub_id, c, &limits, &mut runs);
                let (a, b) = (run(certs).unwrap(), run(certs_b).unwrap());
                let verdict = a.verdicts[ball.center_local.0];
                if !ring.is_empty() && a.rounds > radius {
                    radius = a.rounds;
                    continue 'radius;
                }
                disagreements += usize::from(b.verdicts[ball.center_local.0] != verdict);
                verdicts.push(verdict);
            }
            let support = inner.iter().map(|&i| ball.members[i]).collect();
            return (NodeTable { support, verdicts }, disagreements);
        }
    }

    #[test]
    fn ring_certificates_never_reach_the_centre() {
        use crate::arbiter::Arbiter;
        use lph_props::{BoolExpr, BooleanGraph};
        type Labeling = fn(&LabeledGraph, &mut generators::XorShift) -> LabeledGraph;
        let unit: Labeling = |g, _| g.clone();
        let selection: Labeling = |g, rng| {
            let mut bit = |u: NodeId| if u.0 == 0 || rng.bool() { "1" } else { "0" };
            let labels = g.nodes().map(|u| BitString::from_bits01(bit(u))).collect();
            g.with_labels(labels).unwrap()
        };
        // SAT-GRAPH formulas over ≤ 2 variables, clear of the 4-bit cap.
        let formulas: Labeling = |g, rng| {
            const F: [&str; 6] = ["vp", "!vp", "vq", "&(vp,vq)", "|(vp,!vq)", "T"];
            let exprs = g.nodes().map(|_| BoolExpr::parse(F[rng.below(6)]).unwrap());
            let bg = BooleanGraph::new(g.clone(), exprs.collect()).unwrap();
            bg.graph().clone()
        };
        // Every ℓ = 1 arbiter with per-node outcomes, at a certificate cap
        // that keeps its tables and the exhaustive oracle small.
        let cases: [(Arbiter, usize, Labeling); 6] = [
            (arbiters::three_colorable_verifier(), 2, unit),
            (arbiters::two_colorable_verifier(), 1, unit),
            (arbiters::sat_graph_verifier(), 2, formulas),
            (arbiters::all_selected_pi1(), 1, selection),
            (arbiters::distance_to_unselected_verifier(2), 2, selection),
            (arbiters::pointer_to_unselected_verifier(), 2, selection),
        ];
        // Cycles, paths, stars and seeded chorded cycles.
        let mut rng = generators::XorShift::new(25);
        let mut probes: Vec<LabeledGraph> = (3..=8).map(generators::cycle).collect();
        probes.extend((2..=6).map(generators::path));
        probes.extend((3..=4).map(generators::star));
        for n in [7, 8, 8] {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            edges.extend([(0, n - 1), (0, 2 + rng.below(n - 3))]);
            probes.push(LabeledGraph::from_edges(vec![BitString::new(); n], &edges).unwrap());
        }
        let mut differentials = 0;
        for (arb, cap, labeling) in &cases {
            let limits = GameLimits {
                cert_len_cap: Some(*cap),
                ..GameLimits::default()
            };
            for g in probes.iter().map(|g| labeling(g, &mut rng)) {
                let id = IdAssignment::global(&g);
                let options: Vec<Vec<BitString>> = arb
                    .spec()
                    .budgets(&g, &id, Some(*cap))
                    .iter()
                    .map(|&b| enumerate::bitstrings_up_to(b))
                    .collect();
                for v in g.nodes() {
                    let table = build_table(arb, &g, &id, &options, v, &limits, &mut 0).unwrap();
                    let (oracle, disagreements) = two_padding_table(arb, &g, &id, &options, v);
                    let at = format!("{} at node {v} of {g}", arb.name());
                    assert_eq!(disagreements, 0, "padding B changed a verdict: {at}");
                    let same = (table.support, table.verdicts) == (oracle.support, oracle.verdicts);
                    assert!(same, "tables differ: {at}");
                }
                if options.iter().map(Vec::len).product::<usize>() <= 1 << 14 {
                    let decide =
                        |b| decide_game_backend(arb, &g, &id, &limits, b).map(|r| r.eve_wins);
                    assert_eq!(decide(GameBackend::Exhaustive), decide(GameBackend::Cdcl));
                    differentials += 1;
                }
            }
        }
        assert!(differentials >= 60, "{differentials} differentials");
    }

    #[test]
    fn auto_falls_back_for_higher_levels() {
        // Σ₂ game: quantified-Boolean, so Auto must route to exhaustive and
        // still produce an answer.
        use crate::arbiter::Arbiter;
        use crate::game::GameSpec;
        use lph_graphs::PolyBound;
        use lph_machine::{LocalAlgorithm, NodeCtx, NodeInput, NodeProgram, RoundAction};

        struct Match12;
        impl LocalAlgorithm for Match12 {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let ok =
                    input.certificates.len() == 2 && input.certificates[0] == input.certificates[1];
                Box::new(move |ctx: &mut NodeCtx, _r: usize, _i: &[BitString]| {
                    ctx.charge(1);
                    RoundAction::verdict(ok)
                })
            }
        }
        let spec = GameSpec::sigma(2, 1, 1, PolyBound::linear(0, 1));
        let arb = Arbiter::from_local("match", spec, Match12);
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let limits = GameLimits {
            cert_len_cap: Some(1),
            ..GameLimits::default()
        };
        let auto = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Auto).unwrap();
        assert!(!auto.eve_wins);
        let err = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap_err();
        assert!(matches!(err, GameError::BackendUnsupported { .. }));
    }
}
