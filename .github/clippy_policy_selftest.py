#!/usr/bin/env python3
"""Clippy policy self-test: prove every compiler-enforced rule can fire.

The `taster-lint` tests fire each rule that crate owns on a fixture
of its own (`every_rule_fires_on_its_fixture`). This is the
counterpart for the rules clippy enforces through `clippy.toml` and
the workspace lint table in `Cargo.toml`:
it writes one violation per policy item into a temporary probe
module of the `taster-stats` library crate, runs clippy on it, and
fails unless clippy reports every violating line with the expected
lint. `unsafe` is probed in a run of its own, because the
`forbid(unsafe_code)` error stops compilation before clippy's lints
report.

Run from the workspace root:

    python3 .github/clippy_policy_selftest.py

The crate is restored on exit. Exit status 0 when every violation is
reported, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

LIB = pathlib.Path("crates/stats/src/lib.rs")
PROBE = pathlib.Path("crates/stats/src/policy_probe.rs")
MARK = "// expect: "

# Each violating line names the lints it must draw after MARK.
POLICY = """\
pub fn probe(x: Option<u8>, r: Result<u8, ()>) {
    let _ = std::time::Instant::now(); // expect: clippy::disallowed_types
    let _ = std::time::SystemTime::now(); // expect: clippy::disallowed_types
    let _ = std::time::UNIX_EPOCH.elapsed(); // expect: clippy::disallowed_methods
    let _: std::collections::HashMap<u8, u8> = Default::default(); // expect: clippy::disallowed_types
    let _: std::collections::HashSet<u8> = Default::default(); // expect: clippy::disallowed_types
    let _ = std::hash::RandomState::new(); // expect: clippy::disallowed_types
    let _ = std::thread::Builder::new(); // expect: clippy::disallowed_types
    let _ = std::thread::spawn(|| {}); // expect: clippy::disallowed_methods
    std::thread::scope(|_| {}); // expect: clippy::disallowed_methods
    let _ = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(1); // expect: clippy::disallowed_types clippy::disallowed_methods
    let i = x.unwrap(); // expect: clippy::unwrap_used
    let j = r.expect("set"); // expect: clippy::expect_used
    if i == 0 { panic!("boom"); } // expect: clippy::panic
    if i == 1 { unreachable!(); } // expect: clippy::unreachable
    if i == 2 { unimplemented!(); } // expect: clippy::unimplemented
    if i == 3 { todo!(); } // expect: clippy::todo
    println!("{j}"); // expect: clippy::print_stdout
    print!("{j}"); // expect: clippy::print_stdout
    eprintln!("{j}"); // expect: clippy::print_stderr
    eprint!("{j}"); // expect: clippy::print_stderr
    dbg!(i); // expect: clippy::dbg_macro
}

pub fn sockets(
    ul: &std::os::unix::net::UnixListener,
    tl: &std::net::TcpListener,
    us: &mut std::os::unix::net::UnixStream,
    ts: &mut std::net::TcpStream,
) {
    use std::io::Read;
    let (mut b, mut s) = (Vec::new(), String::new());
    for _c in ul.incoming() {} // expect: clippy::disallowed_methods
    for _c in tl.incoming() {} // expect: clippy::disallowed_methods
    let _ = us.read_to_end(&mut b); // expect: clippy::disallowed_methods
    let _ = us.read_to_string(&mut s); // expect: clippy::disallowed_methods
    let _ = ts.read_to_end(&mut b); // expect: clippy::disallowed_methods
    let _ = ts.read_to_string(&mut s); // expect: clippy::disallowed_methods
    let _ = Read::read_to_end(us, &mut b); // expect: clippy::disallowed_methods
    let _ = Read::read_to_string(ts, &mut s); // expect: clippy::disallowed_methods
}

// Deterministically seeded hash containers, aliased the way
// `domain::fx` aliases FxHashMap/FxHashSet (this crate cannot name them).
#[allow(clippy::disallowed_types, reason = "the probe's own Fx-style aliases")]
type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<std::hash::DefaultHasher>>;
#[allow(clippy::disallowed_types, reason = "the probe's own Fx-style aliases")]
type FxHashSet<T> = std::collections::HashSet<T, std::hash::BuildHasherDefault<std::hash::DefaultHasher>>;

pub fn hash_order(m: &mut FxHashMap<u8, f64>, s: &FxHashSet<u8>, t: &FxHashSet<u8>) {
    for _kv in &*m {} // expect: clippy::iter_over_hash_type
    let _ = m.values().sum::<f64>(); // expect: clippy::disallowed_methods
    let _ = m.keys().count(); // expect: clippy::disallowed_methods
    let _ = m.iter().count(); // expect: clippy::disallowed_methods
    let _ = m.drain().count(); // expect: clippy::disallowed_methods
    let _ = s.union(t).count(); // expect: clippy::disallowed_methods
}
"""

UNSAFE = """\
pub fn probe(p: *const u8) -> u8 {
    unsafe { *p } // expect: unsafe_code
}
"""


def reported(source):
    """(line, lint) pairs clippy reports in the probe holding `source`."""
    PROBE.write_text(source)
    run = subprocess.run(
        ["cargo", "clippy", "-q", "-p", "taster-stats", "--lib", "--message-format=json"],
        capture_output=True,
        text=True,
    )
    got = set()
    for raw in run.stdout.splitlines():
        try:
            msg = json.loads(raw)
        except ValueError:
            continue
        if msg.get("reason") != "compiler-message":
            continue
        code = (msg["message"].get("code") or {}).get("code")
        for span in msg["message"]["spans"]:
            if span["is_primary"] and pathlib.Path(span["file_name"]) == PROBE:
                got.add((span["line_start"], code))
    return got


def check(source):
    """Prints one row per expected lint; returns the number missing."""
    got = reported(source)
    missing = 0
    for n, line in enumerate(source.splitlines(), 1):
        if MARK not in line:
            continue
        code, lints = line.split(MARK, 1)
        for lint in lints.split():
            ok = (n, lint) in got
            missing += not ok
            print(f"{lint:<28} {'reported' if ok else 'NOT REPORTED':<13} {code.strip()[:64]}")
    return missing


def main():
    original = LIB.read_text()
    LIB.write_text(original + "\nmod policy_probe;\n")
    try:
        missing = check(POLICY) + check(UNSAFE)
    finally:
        LIB.write_text(original)
        PROBE.unlink(missing_ok=True)
    if missing:
        print(f"clippy policy self-test FAILED: {missing} violation(s) not reported")
        return 1
    print("clippy policy self-test passed: every policy violation is reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
