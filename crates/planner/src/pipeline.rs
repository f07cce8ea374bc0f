//! The compiled output of a planning session: a plan plus the executable
//! pipeline it materialized to.

use crate::plan::Plan;
use lingua_core::PhysicalPipeline;

/// A plan married to the physical pipeline it compiled into. The physical
/// half is a plain [`PhysicalPipeline`] — every existing consumer (executor,
/// serve registry, stream engine) takes it unchanged; the plan rides along
/// as provenance.
pub struct PlannedPipeline {
    pub plan: Plan,
    pub physical: PhysicalPipeline,
}
