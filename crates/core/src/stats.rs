//! Execution statistics: per-module invocation counts and the LLM usage
//! deltas that back the paper's cost accounting.

use lingua_llm_sim::Usage;
use std::collections::BTreeMap;

/// Counters collected during pipeline execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Invocations per module name.
    pub invocations: BTreeMap<String, u64>,
    /// LLM usage snapshot at executor start (for delta reporting).
    pub usage_at_start: Usage,
}

impl ExecStats {
    pub(crate) fn record_invocation(&mut self, module: &str) {
        self.record_invocations(module, 1);
    }

    /// Book `count` invocations of `module`. The name is copied only the
    /// first time it is booked; booking none leaves no entry.
    pub(crate) fn record_invocations(&mut self, module: &str, count: u64) {
        if let Some(booked) = self.invocations.get_mut(module) {
            *booked += count;
        } else if count > 0 {
            self.invocations.insert(module.to_string(), count);
        }
    }

    #[cfg(test)]
    pub(crate) fn invocations_of(&self, module: &str) -> u64 {
        self.invocations.get(module).copied().unwrap_or(0)
    }

    /// Render a compact text report.
    pub fn report(&self, usage_now: &Usage) -> String {
        let delta = usage_now.since(&self.usage_at_start);
        let mut out = String::from("module invocations:\n");
        for (name, count) in &self.invocations {
            out.push_str(&format!("  {name}: {count}\n"));
        }
        out.push_str(&format!(
            "llm: {} call(s), {} tokens in, {} tokens out, {} cache hit(s)\n",
            delta.calls, delta.tokens_in, delta.tokens_out, delta.cached_calls
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut stats = ExecStats::default();
        stats.record_invocation("a");
        stats.record_invocation("a");
        stats.record_invocation("b");
        stats.record_invocations("b", 3);
        stats.record_invocations("none", 0);
        assert_eq!(stats.invocations_of("a"), 2);
        assert_eq!(stats.invocations_of("b"), 4);
        assert_eq!(stats.invocations_of("missing"), 0);
        assert!(!stats.invocations.contains_key("none"), "booking none leaves no entry");
    }

    #[test]
    fn report_includes_deltas() {
        let mut stats = ExecStats::default();
        stats.record_invocation("matcher");
        let mut usage = Usage::default();
        usage.record(100, 20);
        let report = stats.report(&usage);
        assert!(report.contains("matcher: 1"));
        assert!(report.contains("1 call(s)"));
        assert!(report.contains("100 tokens in"));
    }
}
