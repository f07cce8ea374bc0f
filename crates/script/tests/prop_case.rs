//! `lower` and `upper` are `str::to_lowercase` and `str::to_uppercase`: on
//! ASCII, on already-cased and on mixed text, on non-ASCII text whose casing
//! depends on context (a word-final `Σ`) or changes its length (`İ`, `ß`),
//! and on strings on either side of the length the builtins case on the
//! stack. A string that casing leaves alone comes back as the argument
//! itself. The interpreter and the VM agree on every case, fuel included.

use lingua_ml::check::{check, Gen, LOWER, PRINTABLE};
use lingua_script::{compile, parse, Interpreter, NoHost, Program, Value, Vm};
use std::sync::Arc;

const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// Letters whose casing is not byte for byte: a final and a medial sigma,
/// the dotted and dotless i, the sharp s and its capital, accented Latin,
/// Cyrillic, and characters with no case at all.
const UNICODE: &str = "ΣσςΑαİıIißẞÀàÉéЖж 0.-ǅ中";

const PROGRAM: &str = "fn main(s) { return [lower(s), upper(s)]; }";

fn text(g: &mut Gen) -> String {
    let alphabet = match g.int(0..4u32) {
        0 => PRINTABLE.to_string(),
        1 => LOWER.to_string() + " ",
        2 => UPPER.to_string() + " ",
        _ => format!("{UNICODE}{LOWER}{UPPER}"),
    };
    // Up to well past the 256 bytes cased on the stack.
    g.string(&alphabet, 0..=320)
}

/// `[lower(s), upper(s)]` from the interpreter and from the VM, with the
/// fuel each used.
fn run_both(program: &Program, s: &Arc<str>) -> (Value, Value) {
    let arg = || vec![Value::Str(Arc::clone(s))];
    let mut interp = Interpreter::new(program);
    let by_interp = interp.call(&mut NoHost, "main", arg()).expect("the interpreter runs it");
    let mut vm = Vm::new(Arc::new(compile(program)));
    let by_vm = vm.call(&mut NoHost, "main", arg()).expect("the VM runs it");
    assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel, on {s:?}");
    (by_interp, by_vm)
}

fn cased(value: &Value) -> (Arc<str>, Arc<str>) {
    let parts = value.as_list().expect("a list of two");
    let part = |i: usize| match &parts[i] {
        Value::Str(s) => Arc::clone(s),
        other => panic!("expected a string, got {other:?}"),
    };
    (part(0), part(1))
}

fn holds_on(program: &Program, s: &str) {
    let s: Arc<str> = Arc::from(s);
    let (by_interp, by_vm) = run_both(program, &s);
    assert_eq!(by_interp, by_vm, "interpreter vs VM on {s:?}");
    let (lower, upper) = cased(&by_vm);
    assert_eq!(&*lower, s.to_lowercase(), "lower({s:?})");
    assert_eq!(&*upper, s.to_uppercase(), "upper({s:?})");
    for (got, same) in [(&lower, *lower == *s), (&upper, *upper == *s)] {
        assert_eq!(Arc::ptr_eq(got, &s), same, "an unchanged {s:?} is the argument itself");
    }
}

#[test]
fn lower_and_upper_match_std() {
    let program = parse(PROGRAM).expect("the program parses");
    check("lower_and_upper_match_std", 400, text, |s| holds_on(&program, &s));
}

#[test]
fn lower_and_upper_match_std_on_the_edge_cases() {
    let program = parse(PROGRAM).expect("the program parses");
    let long = |unit: &str, bytes: usize| unit.repeat(bytes / unit.len());
    for s in [
        "",
        "already lower",
        "ALREADY UPPER",
        "MiXeD cAsE 42",
        "ΟΔΥΣΣΕΥΣ",
        "ὈΔΥΣΣΕΎΣ Σ",
        "İstanbul",
        "straße STRASSE",
        "ǅemal",
        "中文",
        &long("a", 256),
        &long("A", 256),
        &long("A", 257),
        &long("Ab", 512),
        &long("Σa", 300),
    ] {
        holds_on(&program, s);
    }
}
