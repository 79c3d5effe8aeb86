//! `/v1/simulate` bodies, pinned: each benchmark under a victim cache, a
//! stream buffer and a miss cache, classification off and on, plus the
//! instruction side and the unified cache for one victim-cache request,
//! all at scale 5,000 and seed 42, computed in-process through
//! [`sim::simulate`]. `simulate_bodies.txt` holds one request and its
//! encoded body per line, separated by a tab.
//!
//! A change that moves any count or rate fails here, whether it is in
//! the generator or in the engines. A change meant to move them rewrites
//! the file: the test writes the text it computed to
//! `target/tmp/simulate_bodies.txt`, to diff against and copy over.
//!
//! The pins hold for x86_64 Linux, as the stream pins do: generation
//! calls `f64::powf`, which the platform's libm computes.

mod pins;

use jouppi_serve::{sim, Json};
use jouppi_workloads::Benchmark;

const PINNED: &str = include_str!("simulate_bodies.txt");

/// The pinned requests, in file order.
fn requests() -> Vec<String> {
    let aids = [
        r#""victim":4"#,
        r#""stream":{"ways":4,"depth":4}"#,
        r#""miss_cache":2"#,
    ];
    let mut requests = Vec::new();
    for bench in Benchmark::ALL {
        for aid in aids {
            for classify in [false, true] {
                requests.push(format!(
                    r#"{{"workload":"{}","scale":5000,"seed":42,{aid},"classify":{classify}}}"#,
                    bench.name()
                ));
            }
        }
    }
    for side in ["i", "all"] {
        requests.push(format!(
            r#"{{"workload":"ccom","scale":5000,"seed":42,"victim":4,"classify":true,"side":"{side}"}}"#
        ));
    }
    requests
}

#[test]
fn simulate_bodies_match_their_pins() {
    let mut actual = String::new();
    for request in requests() {
        let body = Json::parse(&request).expect("pinned requests are valid JSON");
        let result = sim::simulate(&body).unwrap_or_else(|e| panic!("{request}: {e}"));
        actual.push_str(&format!("{request}\t{}\n", result.encode()));
    }
    pins::check("simulate_bodies.txt", PINNED, &actual);
}
