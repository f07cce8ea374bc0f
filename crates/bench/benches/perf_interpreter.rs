//! P1 — MangaScript interpreter throughput: the cost of running LLMGC
//! modules record-at-a-time (parse once, execute per record).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lingua_script::{parse, Interpreter, NoHost, Value};

const TOKENIZER: &str = r#"
fn process(text) {
    if is_null(text) { return []; }
    let out = [];
    for w in split(text, "") {
        let t = strip_punct(w);
        if len(t) > 0 { push(out, t); }
    }
    return out;
}
fn strip_punct(w) {
    let cs = chars(w);
    let start = 0;
    let end = len(cs);
    while start < end && !(is_alpha(cs[start]) || is_digit(cs[start])) { start = start + 1; }
    while end > start && !(is_alpha(cs[end - 1]) || is_digit(cs[end - 1])) { end = end - 1; }
    let out = "";
    for i in range(start, end) { out = out + cs[i]; }
    return out;
}
"#;

const FIB: &str = "fn main() { return fib(16); } fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }";

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");

    let program = parse(TOKENIZER).unwrap();
    let text =
        "Yesterday John Smith met with the board of Acme Corp to discuss the annual budget, \
                and Mary Brown presented the new prototype.";
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("tokenizer_per_record", |b| {
        let mut interp = Interpreter::new(&program);
        b.iter(|| interp.call(&mut NoHost, "process", vec![Value::from(black_box(text))]).unwrap())
    });

    group.bench_function("parse_tokenizer_source", |b| {
        b.iter(|| parse(black_box(TOKENIZER)).unwrap())
    });

    let fib = parse(FIB).unwrap();
    group.bench_function("fib_16_recursion", |b| {
        let mut interp = Interpreter::new(&fib);
        b.iter(|| interp.call(&mut NoHost, "main", vec![]).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_interpreter);
criterion_main!(benches);
