//! Static checks over [`Sentence`] artifacts (rules `FRM001`–`FRM005`).
//!
//! `Sentence::new` already rejects structurally ill-formed sentences
//! (unbound variables, non-BF `LFO` matrices); the rules here catch the
//! mistakes that are *well-formed but wrong*: dead binders, shadowing,
//! atoms outside the declared signature, and claims (hierarchy level,
//! locality, monadicity) that disagree with what the syntax actually says.

use std::collections::BTreeSet;

use lph_logic::{FoVar, Formula, Matrix, Sentence};

use crate::diagnostic::Diagnostic;

/// A sentence plus the author's claims about it.
pub struct SentenceArtifact {
    /// Corpus name (diagnostics are reported against `sentence:<name>`).
    pub name: String,
    /// The sentence.
    pub sentence: Sentence,
    /// Claimed level in the (local) second-order hierarchy, in the
    /// [`lph_logic::Level`] display syntax (`"Σ0 = Π0"`, `"Σ2"`, `"Π4"`, …).
    pub claimed_level: String,
    /// Claimed to be in the *local* hierarchy (`LFO` matrix).
    pub claimed_local: bool,
    /// Claimed to use only monadic (set) second-order variables.
    pub claimed_monadic: bool,
    /// The structure signature the sentence is written against:
    /// `(unary relation count, binary relation count)`.
    pub signature: (usize, usize),
    /// Claimed visibility radius of the matrix, if the author states one
    /// (checked by `FRM007` against the variable-flow radius).
    pub claimed_radius: Option<usize>,
}

impl SentenceArtifact {
    /// Wraps a sentence with its claims, defaulting to the graph
    /// structural-representation signature (1 unary, 2 binary).
    pub fn new(name: &str, sentence: Sentence, claimed_level: &str) -> Self {
        SentenceArtifact {
            name: name.to_owned(),
            claimed_local: sentence.is_local(),
            claimed_monadic: false,
            sentence,
            claimed_level: claimed_level.to_owned(),
            signature: (1, 2),
            claimed_radius: None,
        }
    }

    /// Adds a claimed visibility radius.
    #[must_use]
    pub fn with_radius(mut self, r: usize) -> Self {
        self.claimed_radius = Some(r);
        self
    }

    /// Marks the sentence as claimed monadic.
    #[must_use]
    pub fn monadic(mut self) -> Self {
        self.claimed_monadic = true;
        self
    }

    /// Overrides the claimed-local flag (the constructor defaults it to
    /// the sentence's actual shape).
    #[must_use]
    pub fn claim_local(mut self, local: bool) -> Self {
        self.claimed_local = local;
        self
    }

    pub(crate) fn artifact(&self) -> String {
        format!("sentence:{}", self.name)
    }
}

/// Calls `f` on every first-order binder `(x, body)` in `φ`, passing the
/// set of variables already in scope at that binder.
fn walk_binders(
    phi: &Formula,
    scope: &mut Vec<FoVar>,
    f: &mut impl FnMut(FoVar, &Formula, &[FoVar]),
) {
    match phi {
        Formula::True
        | Formula::False
        | Formula::Unary { .. }
        | Formula::Edge { .. }
        | Formula::Eq(..)
        | Formula::App { .. } => {}
        Formula::Not(g) => walk_binders(g, scope, f),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                walk_binders(g, scope, f);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            walk_binders(a, scope, f);
            walk_binders(b, scope, f);
        }
        Formula::Exists { x, body }
        | Formula::Forall { x, body }
        | Formula::ExistsAdj { x, body, .. }
        | Formula::ForallAdj { x, body, .. }
        | Formula::ExistsNear { x, body, .. }
        | Formula::ForallNear { x, body, .. } => {
            f(*x, body, scope);
            scope.push(*x);
            walk_binders(body, scope, f);
            scope.pop();
        }
    }
}

/// `FRM001` — unused quantified variables: a first- or second-order binder
/// whose variable never occurs in its body is dead syntax.
pub fn check_unused(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let used_so = a.sentence.matrix.body().so_vars();
    for block in &a.sentence.blocks {
        for q in &block.vars {
            if !used_so.contains(&q.var) {
                out.push(
                    Diagnostic::warning(
                        "FRM001",
                        a.artifact(),
                        format!(
                            "second-order variable {} is quantified but never used",
                            q.var
                        ),
                    )
                    .with_suggestion("drop the variable from its block"),
                );
            }
        }
    }
    let mut scope = Vec::new();
    if let Matrix::Lfo { x, body } = &a.sentence.matrix {
        if !body.free_fo().contains(x) {
            out.push(Diagnostic::warning(
                "FRM001",
                a.artifact(),
                format!("the LFO quantifier ∀{x} never uses {x} in its body"),
            ));
        }
        scope.push(*x);
    }
    walk_binders(a.sentence.matrix.body(), &mut scope, &mut |x, body, _| {
        if !body.free_fo().contains(&x) {
            out.push(
                Diagnostic::warning(
                    "FRM001",
                    a.artifact(),
                    format!("first-order variable {x} is quantified but never used"),
                )
                .with_suggestion("remove the quantifier or use the variable"),
            );
        }
    });
    out
}

/// `FRM002` — shadowed variables: a binder re-using a variable already in
/// scope makes the outer occurrence unreachable inside the body.
pub fn check_shadowing(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut scope = Vec::new();
    if let Matrix::Lfo { x, .. } = &a.sentence.matrix {
        scope.push(*x);
    }
    walk_binders(a.sentence.matrix.body(), &mut scope, &mut |x, _, scope| {
        if scope.contains(&x) {
            out.push(
                Diagnostic::warning(
                    "FRM002",
                    a.artifact(),
                    format!("quantifier shadows the outer binding of {x}"),
                )
                .with_suggestion("pick a fresh variable (e.g. via VarPool)"),
            );
        }
    });
    out
}

/// Collects every `(unary rel, binary rel)` index mentioned by atoms.
fn atom_rels(phi: &Formula, unary: &mut BTreeSet<usize>, binary: &mut BTreeSet<usize>) {
    match phi {
        Formula::True | Formula::False | Formula::Eq(..) | Formula::App { .. } => {}
        Formula::Unary { rel, .. } => {
            unary.insert(*rel);
        }
        Formula::Edge { rel, .. } => {
            binary.insert(*rel);
        }
        Formula::Not(g) => atom_rels(g, unary, binary),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                atom_rels(g, unary, binary);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            atom_rels(a, unary, binary);
            atom_rels(b, unary, binary);
        }
        Formula::Exists { body, .. }
        | Formula::Forall { body, .. }
        | Formula::ExistsAdj { body, .. }
        | Formula::ForallAdj { body, .. }
        | Formula::ExistsNear { body, .. }
        | Formula::ForallNear { body, .. } => atom_rels(body, unary, binary),
    }
}

/// `FRM003` — signature mismatch: atoms referring to relations outside the
/// declared `(unary, binary)` signature evaluate against nothing, and two
/// quantified relation variables sharing an index with different arities
/// are almost certainly a mix-up of `SoVar::set` / `SoVar::binary`.
pub fn check_signature(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let (unary_count, binary_count) = a.signature;
    let mut unary = BTreeSet::new();
    let mut binary = BTreeSet::new();
    atom_rels(a.sentence.matrix.body(), &mut unary, &mut binary);
    let mut out = Vec::new();
    for rel in unary {
        if rel >= unary_count {
            out.push(Diagnostic::error(
                "FRM003",
                a.artifact(),
                format!(
                    "unary atom ⊙_{} is outside the declared signature ({unary_count} unary)",
                    rel + 1,
                ),
            ));
        }
    }
    for rel in binary {
        if rel >= binary_count {
            out.push(Diagnostic::error(
                "FRM003",
                a.artifact(),
                format!(
                    "binary atom ⇀_{} is outside the declared signature ({binary_count} binary)",
                    rel + 1,
                ),
            ));
        }
    }
    let quantified: Vec<_> = a.sentence.flat_quantifiers();
    for (i, (_, qi)) in quantified.iter().enumerate() {
        for (_, qj) in &quantified[i + 1..] {
            if qi.var.index == qj.var.index && qi.var.arity != qj.var.arity {
                out.push(
                    Diagnostic::warning(
                        "FRM003",
                        a.artifact(),
                        format!(
                            "second-order index {} is quantified at arities {} and {}",
                            qi.var.index, qi.var.arity, qj.var.arity,
                        ),
                    )
                    .with_suggestion("allocate distinct indices per variable (see VarPool)"),
                );
            }
        }
    }
    out
}

/// `FRM004` — claimed level / fragment mismatch: the declared `Σℓ`/`Πℓ`
/// level must equal the recomputed minimal syntactic level, and the
/// locality claim must match the matrix shape. An empty quantifier block
/// is also flagged — it silently changes how adjacent blocks merge.
pub fn check_level(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let actual = a.sentence.level().to_string();
    if actual != a.claimed_level {
        out.push(
            Diagnostic::error(
                "FRM004",
                a.artifact(),
                format!(
                    "claimed level {} but the prefix computes to {actual}",
                    a.claimed_level
                ),
            )
            .with_suggestion("fix the claim, or restructure the quantifier prefix"),
        );
    }
    if a.claimed_local != a.sentence.is_local() {
        let (claim, is) = if a.claimed_local {
            ("LFO", "FO")
        } else {
            ("FO", "LFO")
        };
        out.push(Diagnostic::error(
            "FRM004",
            a.artifact(),
            format!("claimed an {claim} matrix but the matrix is {is}"),
        ));
    }
    for block in &a.sentence.blocks {
        if block.vars.is_empty() {
            out.push(Diagnostic::warning(
                "FRM004",
                a.artifact(),
                "empty second-order quantifier block in the prefix",
            ));
        }
    }
    out
}

/// `FRM005` — monadicity: a sentence claimed to live in `mΣℓ`/`mΠℓ`
/// (Section 9.2) must quantify only set variables; conversely a sentence
/// that *is* monadic but not claimed so could advertise the stronger
/// fragment.
pub fn check_monadic(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if a.claimed_monadic && !a.sentence.is_monadic() {
        let offender = a
            .sentence
            .flat_quantifiers()
            .into_iter()
            .find(|(_, q)| q.var.arity != 1)
            .map(|(_, q)| q.var);
        let detail = offender.map_or(String::new(), |v| format!(" ({v} has arity {})", v.arity));
        out.push(
            Diagnostic::error(
                "FRM005",
                a.artifact(),
                format!("claimed monadic but quantifies a non-unary relation variable{detail}"),
            )
            .with_suggestion("drop the monadicity claim or re-encode with set variables"),
        );
    }
    if !a.claimed_monadic && a.sentence.is_monadic() && !a.sentence.blocks.is_empty() {
        out.push(Diagnostic::note(
            "FRM005",
            a.artifact(),
            "sentence is monadic but not claimed so; it lives in the mΣℓ/mΠℓ fragment",
        ));
    }
    out
}

/// Runs every formula rule over one artifact.
pub fn check_all(a: &SentenceArtifact) -> Vec<Diagnostic> {
    let mut out = check_unused(a);
    out.extend(check_shadowing(a));
    out.extend(check_signature(a));
    out.extend(check_level(a));
    out.extend(check_monadic(a));
    out
}
