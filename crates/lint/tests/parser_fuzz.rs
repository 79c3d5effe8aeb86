//! Adversarial property tests for the tolerant front end and the call
//! graph builder.
//!
//! The linter runs on every tree state the workspace passes through —
//! including files mid-edit — so its lexer, parser, per-file analyses,
//! call-graph builder, and interprocedural passes must hold three
//! properties on *arbitrary* input:
//!
//! 1. **Never panic** — byte soup, truncated Rust, and
//!    punctuation-mutated Rust all come back as (possibly empty)
//!    results, never a crash.
//! 2. **Always terminate** — every input completes a full pipeline run
//!    (the test finishing is the proof; the parser's forced-progress
//!    invariant is what's under attack here).
//! 3. **Deterministic** — two runs over the same input produce
//!    identical findings and identical call graphs.
//!
//! Randomness comes from the workspace's own seeded xoshiro PRNG
//! (`jouppi_trace::SmallRng`), so every failure reproduces from the
//! printed seed.

use jouppi_lint::callgraph::{self, GraphFile};
use jouppi_lint::check::check_source_facts;
use jouppi_lint::interproc;
use jouppi_lint::policy::classify;
use jouppi_trace::SmallRng;

/// Rust-ish seed fragments covering the grammar the parser handles:
/// items, impls, chains, closures, macros, control flow, directives.
const FRAGMENTS: [&str; 6] = [
    "use crate::json::Json;\n\
     pub fn simulate(body: &Json) -> Result<Json, String> {\n\
         let scale = get_u64(body, \"scale\", 100_000)?;\n\
         if scale == 0 { return Err(\"zero\".to_owned()); }\n\
         Ok(Json::Int(scale as i64))\n\
     }\n",
    "pub struct JobQueue { inner: Mutex<Vec<u64>> }\n\
     impl JobQueue {\n\
         pub fn admit(&self, id: u64) {\n\
             let mut guard = self.inner.lock().expect(\"poisoned\");\n\
             guard.push(id);\n\
         }\n\
     }\n",
    "fn classify(kind: u8) -> &'static str {\n\
         match kind {\n\
             0 => \"compulsory\",\n\
             1 | 2 => \"conflict\",\n\
             _ => \"capacity\",\n\
         }\n\
     }\n",
    "fn sweep() {\n\
         let results: Vec<u64> = (0..16).map(|i| i * 2).collect();\n\
         for r in &results { assert!(r % 2 == 0, \"odd {r}\"); }\n\
         // jouppi-lint: allow(relaxed-ordering) — fixture directive\n\
     }\n",
    "static COUNTER: AtomicU64 = AtomicU64::new(0);\n\
     pub fn bump() -> u64 { COUNTER.fetch_add(1, Ordering::SeqCst) }\n\
     mod inner { pub fn helper() { super::bump(); } }\n",
    "fn chains(v: &mut Vec<u8>) {\n\
         v.iter().filter(|b| **b > 0).count();\n\
         let boxed: Box<dyn Fn(u8) -> u8> = Box::new(move |x| x + 1);\n\
         vec![0u8; 4].truncate(2);\n\
         boxed(3);\n\
     }\n",
];

/// Characters the mutator splices in: heavy on the delimiters and
/// operators the lexer/parser dispatch on, plus multibyte characters to
/// stress char-boundary handling.
const NOISE: [char; 32] = [
    '{', '}', '(', ')', '[', ']', ';', ',', '.', ':', '<', '>', '!', '&', '|', '\'', '"', '#', '/',
    '*', '-', '+', '=', '_', ' ', '\n', 'a', 'Z', '0', 'é', '→', '🦀',
];

fn soup(rng: &mut SmallRng) -> String {
    let len = rng.below(400);
    (0..len).map(|_| NOISE[rng.below(NOISE.len())]).collect()
}

fn truncated(rng: &mut SmallRng) -> String {
    let chars: Vec<char> = FRAGMENTS[rng.below(FRAGMENTS.len())].chars().collect();
    chars[..rng.below(chars.len() + 1)].iter().collect()
}

fn mutated(rng: &mut SmallRng) -> String {
    let mut chars: Vec<char> = FRAGMENTS[rng.below(FRAGMENTS.len())].chars().collect();
    for _ in 0..rng.below(12) + 1 {
        let at = rng.below(chars.len());
        chars[at] = NOISE[rng.below(NOISE.len())];
    }
    chars.into_iter().collect()
}

/// One full pipeline run: per-file check, call-graph build, the
/// interprocedural analysis and the suppression directives. Returns
/// everything observable so the determinism property can compare runs.
fn exercise(src: &str) -> (Vec<String>, usize, Vec<Vec<usize>>) {
    let ctx = classify("crates/serve/src/fuzzed.rs").expect("serve path classifies");
    let mut facts = check_source_facts(src);
    let guarded = vec![std::mem::take(&mut facts.guarded_calls)];
    let inputs = [GraphFile {
        ctx: &ctx,
        ast: &facts.ast,
        test_ranges: &facts.test_ranges,
    }];
    let graph = callgraph::build(&inputs);
    let nodes = graph.nodes.len();
    let edges = graph.edges.clone();
    let more = interproc::run(&graph, &guarded).findings.concat();
    let findings: Vec<String> = facts
        .settle(more)
        .iter()
        .map(|f| format!("{}:{}:{}", f.line, f.lint, f.message))
        .collect();
    (findings, nodes, edges)
}

#[test]
fn arbitrary_input_never_panics_and_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0x4a6f_7570_7069_3938); // "Jouppi98"
    for round in 0..300 {
        let src = match round % 3 {
            0 => soup(&mut rng),
            1 => truncated(&mut rng),
            _ => mutated(&mut rng),
        };
        let first = exercise(&src);
        let second = exercise(&src);
        assert_eq!(
            first, second,
            "round {round}: two runs disagreed on input:\n{src}"
        );
    }
}

#[test]
fn untruncated_fragments_produce_graph_nodes() {
    // Sanity anchor for the fuzz pipeline itself: on well-formed input
    // it must actually see functions, or the properties above would
    // vacuously pass on an all-rejecting parser.
    let all = FRAGMENTS.join("\n");
    let (_, nodes, ..) = exercise(&all);
    assert!(nodes >= 6, "expected the fragments' fns as nodes: {nodes}");
}
