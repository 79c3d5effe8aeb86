//! `/v1/sweep` bodies, pinned: each of [`sweeps::NAMED_SWEEPS`] at scale
//! 5,000 and seed 42, computed in-process through [`sweeps::run_named`].
//! `sweep_bodies.txt` holds one sweep name and its encoded body per
//! line, separated by a tab.
//!
//! A change that moves any count or rate of a sweep fails here, at the
//! line of the sweep it moved: the geometry grid's 480 LRU and 480 FIFO
//! counts, Figure 3-1's classification, or the miss-log sweeps' removed
//! fractions. A change meant to move them rewrites the file: the test
//! writes the text it computed to `target/tmp/sweep_bodies.txt`, to diff
//! against and copy over.
//!
//! The pins hold for x86_64 Linux, as the stream pins do: generation
//! calls `f64::powf`, which the platform's libm computes.

mod pins;

use jouppi_serve::sweeps;

const PINNED: &str = include_str!("sweep_bodies.txt");

#[test]
fn sweep_bodies_match_their_pins() {
    let cfg = sweeps::sweep_config(5_000, 42).expect("a valid scale");
    let mut actual = String::new();
    for name in sweeps::NAMED_SWEEPS {
        let body = sweeps::run_named(name, &cfg).expect("a named sweep");
        actual.push_str(&format!("{name}\t{}\n", body.encode()));
    }
    pins::check("sweep_bodies.txt", PINNED, &actual);
}
