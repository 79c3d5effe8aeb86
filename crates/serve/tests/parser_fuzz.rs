//! Adversarial rounds for the daemon's untrusted input: the HTTP/1.1
//! request reader (`http.rs`), the JSON parser (`json.rs`), and the
//! integer fields `/v1/simulate` and `/v1/sweep` read from a request.
//!
//! Every round must come back, never panic, and never hang (the test
//! finishing is the proof). On top of that:
//!
//! * **HTTP** — byte soup, every truncation of a valid pipelined
//!   GET+POST pair, and single-byte mutations of it are read whole, one
//!   byte per read, and in random-sized reads with timeouts in between.
//!   The requests read, and the error that ends the stream, must be the
//!   same for every chunking.
//! * **JSON** — random valid documents survive `parse(encode(v))` and
//!   `parse(encode_pretty(v))`, and canonical encoding is idempotent.
//!   Byte soup and mutated encodings return `Ok` or `Err`; every `Ok`
//!   re-encodes to text that parses to the same value.
//! * **Requests** — every integer field `sim::simulate` and
//!   `sweeps::sweep_config` read takes the edges of the integer types it
//!   passes through (0, 1, 2^31, 2^32, 2^40, 2^62, `i64::MAX`) or a
//!   small valid value. Each request is rejected or simulated: a panic
//!   or an aborting allocation fails the round. A source scan keeps the
//!   round's field list complete.
//!
//! Randomness comes from the workspace's seeded `jouppi_trace::SmallRng`.
//! Each round seeds its own generator, and a failure prints that seed.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use jouppi_serve::http::{HttpConn, HttpError, Limits, Request};
use jouppi_serve::json::Json;
use jouppi_serve::{sim, sweeps};
use jouppi_trace::SmallRng;
use jouppi_workloads::Benchmark;

const ROUNDS: u64 = 300;

// ---------------------------------------------------------------- HTTP

/// A valid pipelined pair: a GET, then a POST with a body.
const PAIR: &str = "GET /v1/jobs/7?wait=1 HTTP/1.1\r\nHost: a\r\n\r\n\
    POST /v1/simulate HTTP/1.1\r\nContent-Type: application/json\r\n\
    Content-Length: 14\r\n\r\n{\"workload\":1}";

/// Pieces byte soup is built from, `|`-separated: the framing the
/// parser dispatches on.
const HTTP_TOKENS: &str = "GET |POST |/| HTTP/1.1| HTTP/2|\r\n|\r\n\r\n|\n|\r|:| |Host: a|\
    Content-Length: |content-length:|Transfer-Encoding: chunked|Connection: close|0|7|16|+|-|x";

/// Single bytes soup and mutations splice in, some of them not UTF-8.
const HTTP_NOISE: [u8; 16] = [
    b'\r', b'\n', b':', b' ', b'0', b'9', b'+', b'-', b'G', b'/', b'?', b'a', 0x00, 0x7f, 0xc3,
    0xff,
];

fn http_soup(rng: &mut SmallRng) -> Vec<u8> {
    let tokens: Vec<&str> = HTTP_TOKENS.split('|').collect();
    let mut out = Vec::new();
    for _ in 0..rng.below(40) {
        if rng.below(4) == 0 {
            out.push(HTTP_NOISE[rng.below(HTTP_NOISE.len())]);
        } else {
            out.extend_from_slice(tokens[rng.below(tokens.len())].as_bytes());
        }
    }
    out
}

/// `PAIR` with one byte replaced, inserted or deleted.
fn http_mutated(rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = PAIR.as_bytes().to_vec();
    let at = rng.below(bytes.len());
    let noise = HTTP_NOISE[rng.below(HTTP_NOISE.len())];
    match rng.below(3) {
        0 => bytes[at] = noise,
        1 => bytes.insert(at, noise),
        _ => {
            bytes.remove(at);
        }
    }
    bytes
}

/// A reader that replays a script of reads; `None` is a read timeout.
struct Chunks(VecDeque<Option<Vec<u8>>>);

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.pop_front() {
            None => Ok(0),
            Some(None) => Err(io::Error::new(io::ErrorKind::WouldBlock, "tick")),
            Some(Some(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    bytes.drain(..n);
                    self.0.push_front(Some(bytes));
                }
                Ok(n)
            }
        }
    }
}

fn whole(input: &[u8]) -> Chunks {
    Chunks(VecDeque::from([Some(input.to_vec())]))
}

fn byte_by_byte(input: &[u8]) -> Chunks {
    Chunks(input.iter().map(|&b| Some(vec![b])).collect())
}

/// Random-sized reads, with a read timeout between some of them.
fn random_chunks(input: &[u8], rng: &mut SmallRng) -> Chunks {
    let mut steps = VecDeque::new();
    let mut rest = input;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(1 + rng.below(rest.len().min(24)));
        steps.push_back(Some(chunk.to_vec()));
        if rng.below(4) == 0 {
            steps.push_back(None);
        }
        rest = tail;
    }
    Chunks(steps)
}

/// Reads requests until the stream ends (`Ok(None)`) or fails (the
/// error's text), resuming after each timeout the way the server does.
fn read_all(
    reader: Chunks,
    limits: Limits,
    input_len: usize,
) -> Vec<Result<Option<Request>, String>> {
    let mut conn = HttpConn::new(reader, limits);
    let mut out = Vec::new();
    // A request consumes at least its 4-byte head terminator, and every
    // scripted step is one byte or one timeout, so this bounds any
    // terminating parse.
    for _ in 0..2 * input_len + 2 {
        match conn.read_request(None) {
            Err(HttpError::Timeout) => {}
            Ok(Some(request)) => out.push(Ok(Some(request))),
            last => {
                out.push(last.map_err(|e| e.to_string()));
                return out;
            }
        }
    }
    panic!("the parser did not finish a {input_len}-byte input");
}

/// Reads `input` under every chunking and requires one answer.
fn check_http(input: &[u8], limits: Limits, rng: &mut SmallRng, what: &str) {
    let expected = read_all(whole(input), limits, input.len());
    let by_byte = read_all(byte_by_byte(input), limits, input.len());
    let chunked = read_all(random_chunks(input, rng), limits, input.len());
    let shown = String::from_utf8_lossy(input);
    assert_eq!(by_byte, expected, "{what}: byte-by-byte read of {shown:?}");
    assert_eq!(chunked, expected, "{what}: chunked read of {shown:?}");
}

/// The default limits, or tight ones that fall inside `PAIR`'s heads
/// and body so rounds land on both sides of each limit.
fn limits(rng: &mut SmallRng) -> Limits {
    if rng.below(2) == 0 {
        Limits::default()
    } else {
        Limits {
            max_head_bytes: 16 + rng.below(100),
            max_body_bytes: rng.below(20),
        }
    }
}

#[test]
fn every_truncation_reads_the_same_under_any_chunking() {
    // The whole pair really reads as two requests, so the agreement the
    // rounds check is not vacuous.
    let full = read_all(whole(PAIR.as_bytes()), Limits::default(), PAIR.len());
    assert!(
        matches!(full.as_slice(), [Ok(Some(_)), Ok(Some(_)), Ok(None)]),
        "{full:?}"
    );
    const SEED: u64 = 0x6874_7470_0001;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for cut in 0..=PAIR.len() {
        let input = &PAIR.as_bytes()[..cut];
        let limits = limits(&mut rng);
        check_http(
            input,
            limits,
            &mut rng,
            &format!("cut {cut} (seed {SEED:#x})"),
        );
    }
}

#[test]
fn byte_soup_and_mutations_read_the_same_under_any_chunking() {
    for round in 0..ROUNDS {
        let seed = 0x6874_7470_1000 + round;
        let mut rng = SmallRng::seed_from_u64(seed);
        let input = if round % 2 == 0 {
            http_soup(&mut rng)
        } else {
            http_mutated(&mut rng)
        };
        let limits = limits(&mut rng);
        check_http(
            &input,
            limits,
            &mut rng,
            &format!("round {round} (seed {seed:#x})"),
        );
    }
}

// ---------------------------------------------------------------- JSON

/// Characters strings are drawn from: control characters, everything the
/// encoder escapes, multibyte and astral characters.
const STR_CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{8}\u{1f}\u{7f}é\u{2028}\u{ffff}😀\u{10ffff}";

fn arb_string(rng: &mut SmallRng) -> String {
    let chars: Vec<char> = STR_CHARS.chars().collect();
    (0..rng.below(8))
        .map(|_| chars[rng.below(chars.len())])
        .collect()
}

fn arb_int(rng: &mut SmallRng) -> i64 {
    match rng.below(4) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => i64::from_ne_bytes(rng.next_u64().to_ne_bytes()),
        _ => i64::from(rng.gen_range(0..2000u32)) - 1000,
    }
}

fn arb_float(rng: &mut SmallRng) -> f64 {
    match rng.below(4) {
        // Integral and at least 1e15: the encoder must keep the point.
        0 => (1 + rng.below(1 << 20)) as f64 * 1e15,
        1 => rng.next_f64() * 2.0 - 1.0,
        2 => [0.0, -0.0, 29.0, 0.1, f64::MAX, f64::MIN_POSITIVE][rng.below(6)],
        // Any finite bit pattern: subnormals, huge, tiny.
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|f| f.is_finite())
            .unwrap_or(1.5),
    }
}

/// A random document nested at most `depth` levels.
fn arb_json(rng: &mut SmallRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(arb_int(rng)),
        3 => Json::Float(arb_float(rng)),
        4 => Json::Str(arb_string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Characters mutations and soup splice in: the grammar's punctuation,
/// number and literal pieces, escapes, and multibyte characters.
const JSON_NOISE: &str = "{}[],:\"\\untfeE.-+019ad \n\u{1}é😀\u{7f}";

fn json_soup(rng: &mut SmallRng) -> String {
    let noise: Vec<char> = JSON_NOISE.chars().collect();
    (0..rng.below(60))
        .map(|_| noise[rng.below(noise.len())])
        .collect()
}

fn json_mutated(rng: &mut SmallRng) -> String {
    let noise: Vec<char> = JSON_NOISE.chars().collect();
    let depth = 1 + rng.below(4);
    let doc = arb_json(rng, depth);
    let mut chars: Vec<char> = doc.encode().chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        let c = noise[rng.below(noise.len())];
        match rng.below(3) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn random_documents_round_trip() {
    for round in 0..ROUNDS {
        let seed = 0x6a73_6f6e_0000 + round;
        let mut rng = SmallRng::seed_from_u64(seed);
        let depth = rng.below(9);
        let v = arb_json(&mut rng, depth);
        let at = format!("round {round} (seed {seed:#x})");
        let compact = v.encode();
        assert_eq!(Json::parse(&compact), Ok(v.clone()), "{at}: {compact}");
        let pretty = v.encode_pretty();
        assert_eq!(Json::parse(&pretty), Ok(v.clone()), "{at}: {pretty}");
        let canonical = v.encode_canonical();
        let reparsed = Json::parse(&canonical).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(reparsed.encode_canonical(), canonical, "{at}");
    }
}

#[test]
fn garbage_parses_or_fails_and_every_ok_re_encodes() {
    for round in 0..2 * ROUNDS {
        let seed = 0x6a73_6f6e_1000 + round;
        let mut rng = SmallRng::seed_from_u64(seed);
        let text = if round % 2 == 0 {
            json_soup(&mut rng)
        } else {
            json_mutated(&mut rng)
        };
        if let Ok(v) = Json::parse(&text) {
            let again = v.encode();
            assert_eq!(
                Json::parse(&again),
                Ok(v),
                "round {round} (seed {seed:#x}): {text:?} re-encoded as {again:?}"
            );
        }
    }
}

// ------------------------------------------------------------ requests

/// One integer field of a `/v1/simulate` request: the object holding it
/// (`None` for the top level), its key, the value of the round's valid
/// base request, and a small valid value the round also draws.
struct Field {
    object: Option<&'static str>,
    key: &'static str,
    base: i64,
    small: i64,
}

/// Every integer field `sim::simulate` reads. The base request is
/// valid, so each edge value set alone reaches the code behind it.
const SIMULATE_FIELDS: [Field; 10] = [
    Field {
        object: None,
        key: "scale",
        base: 1_000,
        small: 1_000,
    },
    Field {
        object: None,
        key: "seed",
        base: 42,
        small: 7,
    },
    Field {
        object: Some("cache"),
        key: "size",
        base: 4_096,
        small: 8_192,
    },
    Field {
        object: Some("cache"),
        key: "line",
        base: 16,
        small: 32,
    },
    Field {
        object: Some("cache"),
        key: "assoc",
        base: 1,
        small: 2,
    },
    Field {
        object: None,
        key: "victim",
        base: 0,
        small: 4,
    },
    Field {
        object: None,
        key: "miss_cache",
        base: 0,
        small: 4,
    },
    Field {
        object: Some("stream"),
        key: "ways",
        base: 1,
        small: 4,
    },
    Field {
        object: Some("stream"),
        key: "depth",
        base: 4,
        small: 2,
    },
    Field {
        object: None,
        key: "stride_detect",
        base: 0,
        small: 8,
    },
];

/// `/v1/sweep`'s integer fields, as (key, small valid value).
const SWEEP_FIELDS: [(&str, i64); 2] = [("scale", 1_000), ("seed", 7)];

/// The edges of the integer types a request field passes through.
const EDGES: [i64; 7] = [0, 1, 1 << 31, 1 << 32, 1 << 40, 1 << 62, i64::MAX];

/// The values the round gives a field: every edge, then `small`.
fn values(small: i64) -> impl Iterator<Item = i64> {
    EDGES.into_iter().chain([small])
}

/// A `/v1/simulate` body with `values[i]` in `SIMULATE_FIELDS[i]`.
fn simulate_request(workload: &str, values: &[i64]) -> Json {
    let mut top = vec![
        ("workload".to_owned(), Json::str(workload)),
        ("side".to_owned(), Json::str("all")),
        ("classify".to_owned(), Json::Bool(true)),
    ];
    let mut nested: BTreeMap<&str, Vec<(String, Json)>> = BTreeMap::new();
    for (field, &value) in SIMULATE_FIELDS.iter().zip(values) {
        let entry = (field.key.to_owned(), Json::Int(value));
        match field.object {
            None => top.push(entry),
            Some(object) => nested.entry(object).or_default().push(entry),
        }
    }
    top.extend(
        nested
            .into_iter()
            .map(|(object, fields)| (object.to_owned(), Json::Obj(fields))),
    );
    Json::Obj(top)
}

/// `sim::simulate` must return `Ok` or `Err` on `body`; an accepted
/// request must have run at a scale the round can afford. Returns
/// whether the request was accepted.
fn check_simulate(body: &Json, at: &str) -> bool {
    let text = body.encode();
    match catch_unwind(AssertUnwindSafe(|| sim::simulate(body))) {
        Err(_) => panic!("{at}: simulate panicked on {text}"),
        Ok(Ok(doc)) => {
            let scale = doc.get("scale").and_then(Json::as_i64);
            assert!(
                scale.is_some_and(|s| s <= 1_000),
                "{at}: {text} ran at {scale:?}"
            );
            true
        }
        Ok(Err(_)) => false,
    }
}

#[test]
fn every_integer_simulate_field_is_rejected_or_simulated() {
    let base: Vec<i64> = SIMULATE_FIELDS.iter().map(|f| f.base).collect();
    assert!(check_simulate(
        &simulate_request("liver", &base),
        "base request"
    ));
    // Each field alone at each value, on the valid base request. Its
    // small value is accepted, so the edges are not all rejected early.
    for (i, field) in SIMULATE_FIELDS.iter().enumerate() {
        for value in values(field.small) {
            let mut request = base.clone();
            request[i] = value;
            let at = format!("{} = {value}", field.key);
            let accepted = check_simulate(&simulate_request("met", &request), &at);
            assert!(accepted || value != field.small, "{at}: rejected");
        }
    }
    // Seeded rounds: several fields at once, on every workload.
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let seed = 0x7265_7175_0000 + round;
        eprintln!("request round {round}: seed {seed:#x}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut request = base.clone();
        for _ in 0..=rng.below(4) {
            let i = rng.below(SIMULATE_FIELDS.len());
            let drawn: Vec<i64> = values(SIMULATE_FIELDS[i].small).collect();
            request[i] = drawn[rng.below(drawn.len())];
        }
        let workload = Benchmark::ALL[rng.below(Benchmark::ALL.len())].name();
        let at = format!("round {round} (seed {seed:#x})");
        accepted += usize::from(check_simulate(&simulate_request(workload, &request), &at));
    }
    assert!(accepted > 0, "every seeded request was rejected");
}

#[test]
fn every_integer_sweep_field_is_rejected_or_swept() {
    let [(_, small_scale), (_, small_seed)] = SWEEP_FIELDS;
    let seeds: Vec<i64> = values(small_seed).collect();
    let mut accepted = 0;
    for scale in values(small_scale) {
        for &seed in &seeds {
            let at = format!("scale {scale}, seed {seed}");
            let Ok(cfg) = sweeps::sweep_config(scale as u64, seed as u64) else {
                continue;
            };
            assert!(cfg.scale.instructions <= 1_000, "{at}: accepted");
            let name = sweeps::NAMED_SWEEPS[accepted % sweeps::NAMED_SWEEPS.len()];
            accepted += 1;
            let doc = catch_unwind(|| sweeps::run_named(name, &cfg))
                .unwrap_or_else(|_| panic!("{at}: {name} panicked"));
            assert!(doc.is_some(), "{at}: {name} is a named sweep");
        }
    }
    assert_eq!(accepted, 2 * seeds.len(), "scales 1 and 1000 are valid");
}

/// The request rounds cover every key serve reads through its integer
/// accessors: a new integer field fails here until the rounds draw it.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the check reads the daemon's own sources"
)]
fn request_rounds_cover_every_integer_key() {
    let covered: Vec<&str> = SIMULATE_FIELDS
        .iter()
        .map(|f| f.key)
        .chain(SWEEP_FIELDS.iter().map(|&(key, _)| key))
        .collect();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut reads = Vec::new();
    for entry in std::fs::read_dir(&src).expect("list src/") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read source");
        for accessor in ["get_u64(", "get_usize("] {
            for (at, _) in text.match_indices(accessor) {
                let call = &text[at..];
                let args = &call[..call.find(')').unwrap_or(call.len())];
                if let Some(key) = args.split('"').nth(1) {
                    reads.push((path.display().to_string(), key.to_owned()));
                }
            }
        }
    }
    assert!(reads.len() >= 12, "the scan found only {reads:?}");
    for (file, key) in reads {
        assert!(
            covered.contains(&key.as_str()),
            "{file} reads integer key '{key}', which no request round draws"
        );
    }
}
