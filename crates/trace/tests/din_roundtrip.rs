//! Property rounds for the Dinero ("din") reader and writer.
//!
//! Writing then reading any trace is the identity, and the writer emits
//! one ASCII `LABEL ADDRESS` line per reference. Traces are also
//! untrusted input (`--trace FILE`, `jouppi-stat`), so the reader must
//! survive arbitrary bytes: every round returns `Ok` or `Err` and never
//! panics. Randomness comes from the workspace's seeded `SmallRng`, so a
//! failing round reproduces from its printed index.

use jouppi_trace::io::{read_din, write_din};
use jouppi_trace::{AccessKind, Addr, MemRef, RecordedTrace, SmallRng};

const ROUNDS: usize = 300;

fn arb_ref(rng: &mut SmallRng) -> MemRef {
    let kind = match rng.below(3) {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        _ => AccessKind::InstrFetch,
    };
    // Shifting by a random amount mixes one-digit addresses with
    // full-width ones.
    let addr = rng.next_u64() >> rng.below(64);
    MemRef::new(Addr::new(addr), kind)
}

fn arb_trace(rng: &mut SmallRng, max_len: usize) -> RecordedTrace {
    let len = rng.below(max_len);
    RecordedTrace::from_refs("t", (0..len).map(|_| arb_ref(rng)).collect())
}

fn din_bytes(trace: &RecordedTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_din(trace, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

#[test]
fn write_then_read_is_identity() {
    let mut rng = SmallRng::seed_from_u64(0x6469_6e31);
    for round in 0..ROUNDS {
        let trace = arb_trace(&mut rng, 200);
        let back = read_din(din_bytes(&trace).as_slice(), "t")
            .unwrap_or_else(|e| panic!("round {round}: own output must parse: {e}"));
        assert_eq!(back.as_slice(), trace.as_slice(), "round {round}");
    }
}

#[test]
fn output_is_line_per_ref_ascii() {
    let mut rng = SmallRng::seed_from_u64(0x6469_6e32);
    for round in 0..ROUNDS {
        let trace = arb_trace(&mut rng, 100);
        let text = String::from_utf8(din_bytes(&trace)).expect("din output is UTF-8");
        assert!(text.is_ascii(), "round {round}");
        assert_eq!(text.lines().count(), trace.len(), "round {round}");
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let label = parts.next().expect("label");
            assert!(matches!(label, "0" | "1" | "2"), "round {round}: {line}");
            let addr = parts.next().expect("address");
            assert!(
                u64::from_str_radix(addr, 16).is_ok(),
                "round {round}: {line}"
            );
            assert!(parts.next().is_none(), "round {round}: {line}");
        }
    }
}

/// Bytes the mutator splices in: din's own alphabet, separators, comment
/// markers, `0x` prefixes, signs, and bytes that are not UTF-8 at all.
const NOISE: [u8; 24] = [
    b'0', b'1', b'2', b'3', b'9', b'a', b'f', b'g', b'x', b'X', b' ', b'\t', b'\n', b'\r', b'#',
    b'-', b'+', b'_', 0x00, 0x7f, 0x80, 0xc3, 0xfe, 0xff,
];

#[test]
fn byte_soup_and_mutated_din_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x6469_6e33);
    let (mut parsed, mut rejected) = (0, 0);
    for round in 0..ROUNDS {
        let input: Vec<u8> = if round % 2 == 0 {
            let len = rng.below(400);
            (0..len).map(|_| NOISE[rng.below(NOISE.len())]).collect()
        } else {
            let mut text = din_bytes(&arb_trace(&mut rng, 40));
            if !text.is_empty() {
                for _ in 0..=rng.below(8) {
                    let at = rng.below(text.len());
                    text[at] = NOISE[rng.below(NOISE.len())];
                }
                let keep = rng.below(text.len() + 1);
                text.truncate(keep);
            }
            text
        };
        match read_din(input.as_slice(), "fuzz") {
            Ok(trace) => {
                parsed += 1;
                let lines = input.split(|&b| b == b'\n').count();
                assert!(trace.len() <= lines, "round {round}: more refs than lines");
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.to_string().is_empty(), "round {round}");
            }
        }
    }
    // Both outcomes must actually occur, or the rounds test nothing.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
