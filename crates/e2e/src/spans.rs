//! Self time per span kind from the stamps a [`WallSink`] collected.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. The tracer parents spans through a thread-local stack, so a
//! child always ran inside its parent on the parent's thread; spans begun
//! on a lane thread (`PipelinedMapModule`) have no parent and are reported
//! as roots.

use crate::adapters::Stamp;
use lingua_trace::{Phase, SpanKind};
use std::collections::{BTreeMap, HashMap};

#[derive(Default, Clone, Copy)]
pub struct KindTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Total time of the spans of this kind that had no parent.
    pub root_ns: u64,
}

#[derive(Default)]
pub struct SpanTimes {
    kinds: BTreeMap<SpanKind, KindTime>,
    /// `(duration, time inside child spans)` of every serve-job span, in ns:
    /// the second is the pipeline run, the difference the job's queue wait.
    pub serve_jobs: Vec<(u64, u64)>,
    pub events: u64,
}

struct Open {
    kind: SpanKind,
    parent: Option<u64>,
    begin_ns: u64,
    children_ns: u64,
}

impl SpanTimes {
    pub fn from_stamps(stamps: &[Stamp]) -> SpanTimes {
        let mut times = SpanTimes { events: stamps.len() as u64, ..SpanTimes::default() };
        let mut open: HashMap<u64, Open> = HashMap::new();
        for stamp in stamps {
            match stamp.phase {
                Phase::Begin => {
                    open.insert(
                        stamp.span,
                        Open {
                            kind: stamp.kind,
                            parent: stamp.parent,
                            begin_ns: stamp.ns,
                            children_ns: 0,
                        },
                    );
                }
                Phase::End => {
                    // An end without a begin belongs to a span opened before
                    // the phase's sink was installed; there is none here.
                    let Some(span) = open.remove(&stamp.span) else { continue };
                    let duration = stamp.ns.saturating_sub(span.begin_ns);
                    let entry = times.kinds.entry(span.kind).or_default();
                    entry.spans += 1;
                    entry.total_ns += duration;
                    entry.self_ns += duration.saturating_sub(span.children_ns);
                    if span.kind == SpanKind::ServeJob {
                        times.serve_jobs.push((duration, span.children_ns.min(duration)));
                    }
                    match span.parent.and_then(|id| open.get_mut(&id)) {
                        Some(parent) => parent.children_ns += duration,
                        None => entry.root_ns += duration,
                    }
                }
                Phase::Instant => {}
            }
        }
        times
    }

    pub fn kind(&self, kind: SpanKind) -> KindTime {
        self.kinds.get(&kind).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(span: u64, parent: Option<u64>, phase: Phase, kind: SpanKind, ns: u64) -> Stamp {
        Stamp { span, parent, phase, kind, ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let stamps = vec![
            stamp(1, None, Phase::Begin, SpanKind::Pipeline, 0),
            stamp(2, Some(1), Phase::Begin, SpanKind::Op, 10),
            stamp(3, Some(2), Phase::Begin, SpanKind::LlmCall, 20),
            stamp(4, Some(3), Phase::Instant, SpanKind::Gateway, 25),
            stamp(3, None, Phase::End, SpanKind::LlmCall, 60),
            stamp(2, None, Phase::End, SpanKind::Op, 90),
            stamp(1, None, Phase::End, SpanKind::Pipeline, 100),
            // A lane span: no parent, so it is a root.
            stamp(5, None, Phase::Begin, SpanKind::LlmCall, 30),
            stamp(5, None, Phase::End, SpanKind::LlmCall, 45),
        ];
        let times = SpanTimes::from_stamps(&stamps);
        assert_eq!(times.events, 9);
        assert_eq!(times.kind(SpanKind::Pipeline).self_ns, 20);
        assert_eq!(times.kind(SpanKind::Op).self_ns, 40);
        let llm = times.kind(SpanKind::LlmCall);
        assert_eq!((llm.spans, llm.total_ns, llm.self_ns, llm.root_ns), (2, 55, 55, 15));
        assert_eq!(times.kind(SpanKind::Pipeline).root_ns, 100);
        assert_eq!(times.kind(SpanKind::Batch).spans, 0);
    }
}
