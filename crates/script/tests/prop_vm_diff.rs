//! Property-based differential testing: arbitrary generated programs must
//! behave identically on the tree-walking interpreter and the bytecode VM —
//! results, errors, fuel use, print output, and host-call sequences.
//!
//! Complements `vm_differential.rs` (curated corner cases, fuel and depth
//! sweeps, reparsed programs with real spans) over the same generator.

mod common;

use common::assert_equivalent;
use lingua_ml::check::check;

#[test]
fn vm_matches_interpreter_on_arbitrary_programs() {
    check("vm_matches_interpreter_on_arbitrary_programs", 300, common::program, |p| {
        let _ = assert_equivalent(&p, 5_000, "arbitrary program");
    });
}

#[test]
fn vm_matches_interpreter_under_tight_fuel() {
    // Starved budgets cut execution at arbitrary points; the trap point
    // and the fuel counter must still agree exactly.
    check(
        "vm_matches_interpreter_under_tight_fuel",
        300,
        |g| (common::program(g), g.int(1u64..200)),
        |(p, fuel)| {
            let _ = assert_equivalent(&p, fuel, "tight fuel");
        },
    );
}
