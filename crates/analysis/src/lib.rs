//! Rule-based static analysis over the workspace's formal artifacts —
//! distributed Turing machines, prenex second-order sentences, arbiters,
//! and local reductions.
//!
//! The repo's artifacts carry *claims* the type system cannot see: a
//! transition table claims to be total, a sentence claims to sit on level
//! `Σ3` of the local hierarchy, an arbiter claims to realize a `Σ1` game
//! in two rounds, a reduction claims to output valid cluster maps. Each
//! lint rule recomputes one such claim from first principles and emits a
//! [`Diagnostic`] when the artifact disagrees with itself.
//!
//! * [`dtm`] — transition-table rules `DTM001`–`DTM006` (totality,
//!   reachability, dead entries, left-end discipline, halting,
//!   non-termination).
//! * [`formula`] — sentence rules `FRM001`–`FRM005` (unused and shadowed
//!   variables, signature conformance, level/fragment claims,
//!   monadicity claims).
//! * [`contract`] — arbiter and reduction rules `ARB001`/`ARB002` and
//!   `RED001`/`RED002` (game-spec realization, metered rounds,
//!   cluster-map conditions).
//! * [`flow`] — the semantic tier: dataflow engines deriving machine
//!   reachability and certified Lemma 10 step/space bounds
//!   (`DTM007`–`DTM010`), semantic hierarchy levels and flow radii
//!   (`FRM006`–`FRM008`), symbolic reduction output-size bounds
//!   (`RED003`–`RED005`), and the compiled-tier translation validators
//!   certifying `CompiledTm` bytecode (`VM001`–`VM004`) and
//!   `CompiledSentence` plans (`PLN001`–`PLN003`), surfaced at the
//!   `Proof` severity.
//! * [`proofcheck`] — proof-carrying game claims (`SAT001`–`SAT003`):
//!   registered instances are re-decided by the CDCL backend, UNSAT-side
//!   verdicts must carry refutations accepted by the independent RUP
//!   checker, and proofs serialize as `lph-proof/1` JSON.
//! * [`registry`] — the rule table and allow/deny configuration.
//! * [`corpus`] — the built-in corpus of shipped artifacts; `lph-lint`
//!   runs the rules over it.
//! * [`json`] — a dependency-free JSON emitter/parser for `--format json`.
//! * [`tracefmt`] — the `lph-trace/1` schema: serialization and
//!   validation of execution-trace snapshots.
//! * [`servefmt`] — the `lph-serve/1` schema: structural validation of
//!   the query service's newline-delimited wire documents.
//!
//! # Example
//!
//! ```
//! use lph_analysis::{run_builtin, RuleConfig};
//!
//! // The shipped corpus is lint-clean.
//! let diags = run_builtin(&RuleConfig::new());
//! assert!(diags.is_empty(), "{diags:?}");
//! ```

#![forbid(unsafe_code)]

pub mod contract;
pub mod corpus;
pub mod diagnostic;
pub mod dtm;
pub mod flow;
pub mod formula;
pub mod json;
pub mod proofcheck;
pub mod registry;
pub mod servefmt;
pub mod tracefmt;

pub use contract::{ArbiterArtifact, ClusterMapArtifact, ReductionArtifact};
pub use corpus::{builtin, run, run_builtin, run_builtin_deep, run_deep, Corpus};
pub use diagnostic::{sort_diagnostics, Diagnostic, Severity};
pub use dtm::DtmArtifact;
pub use flow::{
    analyze_bytecode, plan_cost, reduction_domain_ok, verify_bytecode, verify_plan, MachineFlow,
};
pub use formula::SentenceArtifact;
pub use json::{diagnostics_from_json, diagnostics_to_json, Json};
pub use proofcheck::{
    check_game_claims, evidence_diagnostics, proof_from_json, proof_to_json, GameClaim,
    PROOF_SCHEMA,
};
pub use registry::{rule, RuleConfig, RuleInfo, RULES};
pub use servefmt::{validate_serve_request, validate_serve_response, SERVE_ERROR_CODES};
pub use tracefmt::{trace_to_json, validate_trace, TraceStats};
