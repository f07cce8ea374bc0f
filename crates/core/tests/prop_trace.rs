//! Property tests for trace well-formedness under a pipelined map: spans
//! emitted concurrently from its lane threads must always reassemble into a
//! well-formed forest — every span closed exactly once, every child strictly
//! nested inside its parent's logical-clock window, timestamps unique — and
//! per-span usage rollups must reconcile with the workload.

use lingua_core::modules::{CustomModule, Module, PipelinedMapModule};
use lingua_core::{CoreError, Data, ExecContext};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{SimLlm, Usage};
use lingua_ml::check::check;
use lingua_trace::{ring_tracer, SpanKind, SpanNode, TraceTree, Tracer};
use std::sync::{Arc, OnceLock};

/// Map `body` over `items` at `depth` lanes, each lane's context tracing to
/// `tracer`; the outputs in item order.
fn traced_map(
    items: Vec<Data>,
    depth: usize,
    tracer: Tracer,
    body: fn(Data, &mut ExecContext) -> Result<Data, CoreError>,
) -> Vec<Data> {
    static WORLD: OnceLock<WorldSpec> = OnceLock::new();
    let world = WORLD.get_or_init(|| WorldSpec::generate(3));
    let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(world, 3)));
    ctx.tracer = tracer;
    let mut map = PipelinedMapModule::new("work", depth, move || {
        Box::new(CustomModule::stateless("work", body)) as Box<dyn Module>
    });
    match map.invoke(Data::List(items), &mut ctx).expect("an unbounded token never cancels") {
        Data::List(outputs) => outputs,
        other => panic!("a map over a list answers a list, not {other:?}"),
    }
}

/// A child's clock window must sit strictly inside its parent's, all the way
/// down — "parent opens before child, child closes before parent".
fn assert_nested(node: &SpanNode) {
    for child in &node.children {
        assert!(child.begin_seq > node.begin_seq, "child begins after its parent");
        assert!(child.end_seq < node.end_seq, "child ends before its parent");
        assert_nested(child);
    }
    for instant in &node.instants {
        assert!(instant.seq > node.begin_seq && instant.seq < node.end_seq);
    }
}

/// Arbitrary workloads over arbitrary thread counts: the interleaved
/// event stream always rebuilds into item-shaped spans with exact usage.
#[test]
fn parallel_map_traces_stay_well_formed() {
    check(
        "parallel_map_traces_stay_well_formed",
        48,
        |g| (g.vec(0..24, |g| (g.int(1u32..500), g.int(1u32..200))), g.int(0usize..9)),
        |(items, threads)| {
            let (tracer, sink) = ring_tracer(1 << 12);
            let input = items
                .iter()
                .map(|&(tokens_in, tokens_out)| {
                    Data::List(vec![Data::Int(tokens_in.into()), Data::Int(tokens_out.into())])
                })
                .collect();
            let outputs = traced_map(input, threads, tracer.clone(), |item, ctx| {
                let Data::List(pair) = item else { unreachable!("each item is a pair") };
                let [Data::Int(tokens_in), Data::Int(tokens_out)] = pair[..] else {
                    unreachable!("of token counts")
                };
                let tracer = &ctx.tracer;
                let mut op = tracer.span(SpanKind::Op, "work");
                op.attr("tokens_in", tokens_in.to_string());
                tracer.instant(SpanKind::Op, "checkpoint", Vec::new);
                {
                    let mut call = tracer.span(SpanKind::LlmCall, "complete");
                    let mut usage = Usage::default();
                    usage.record(tokens_in as usize, tokens_out as usize);
                    call.set_usage(usage);
                }
                Ok(Data::Int(tokens_in + tokens_out))
            });
            assert_eq!(outputs.len(), items.len());
            assert_eq!(tracer.dropped(), 0);

            // Well-formedness: build() enforces unique timestamps, every span
            // closed exactly once, and parents open at child emission.
            let tree = TraceTree::build(&sink.events()).expect("well-formed under concurrency");
            assert_eq!(tree.roots.len(), items.len(), "one op root per item");
            for root in &tree.roots {
                assert_eq!(root.kind, SpanKind::Op);
                assert_eq!(root.children.len(), 1, "each op wraps exactly one llm call");
                assert_eq!(root.children[0].kind, SpanKind::LlmCall);
                assert_eq!(root.instants.len(), 1, "the checkpoint lands under its op");
                assert_nested(root);
            }

            // Cost attribution: every item's usage shows up exactly once, and
            // the forest total is the workload total.
            let mut expected = Usage::default();
            for &(tokens_in, tokens_out) in &items {
                expected.record(tokens_in as usize, tokens_out as usize);
            }
            assert_eq!(tree.total_usage(), expected);

            // Per-root rollups match per-item bills: the begin-edge attr keys
            // each root back to its item's input size.
            for root in &tree.roots {
                let tokens_in: u64 = root.attrs["tokens_in"].parse().unwrap();
                assert_eq!(root.rollup().tokens_in, tokens_in);
            }
        },
    );
}

/// The logical clock never reuses a timestamp, no matter how many
/// threads race on it — checked over the raw event stream, not the tree.
#[test]
fn logical_clock_is_strictly_monotone_per_stream() {
    check(
        "logical_clock_is_strictly_monotone_per_stream",
        48,
        |g| (g.int(0usize..64), g.int(0usize..9)),
        |(n, threads)| {
            let (tracer, sink) = ring_tracer(1 << 12);
            let items = (0..n as i64).map(Data::Int).collect();
            traced_map(items, threads, tracer, |i, ctx| {
                ctx.tracer.instant(SpanKind::Module, "tick", || vec![("i".into(), i.render())]);
                Ok(i)
            });
            let mut seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
            assert_eq!(seqs.len(), n);
            seqs.sort_unstable();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "timestamps are unique");
        },
    );
}
