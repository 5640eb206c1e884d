//! The unified unit of work.
//!
//! Everything the workspace fans out — fault-sweep cohort chunks, Table 1
//! power sessions, campaign jobs — is wrapped in a [`WorkItem`] before it
//! reaches the pool. The pool itself never looks inside: it dispatches
//! every item through the one [`WorkItem::execute`] entry point with the
//! claiming worker's [`WorkerScratch`]; the variant tag records which
//! run type an item belongs to.

use crate::scratch::WorkerScratch;

/// The run type a [`WorkItem`] belongs to, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// A fault-simulation chunk: cohort dispatches, per-fault golden-path
    /// simulations, DOF sweep slices.
    FaultSweep,
    /// A Table 1 power session (cycle-accurate or replayed).
    PowerSession,
    /// One attempt of a journaled campaign job.
    CampaignJob,
}

/// One closure's worth of work, tagged with its run type.
///
/// The closure receives the executing worker's scratch and returns
/// nothing — results travel through whatever the closure captured
/// (write-once output slots, shared result maps), which is what keeps the
/// pool ignorant of result types and the fan-outs order-preserving.
pub struct Task<'a> {
    run: Box<dyn FnOnce(&mut WorkerScratch) + Send + 'a>,
}

impl<'a> Task<'a> {
    /// Wraps a closure as a task.
    pub fn new(run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        Self { run: Box::new(run) }
    }

    /// Consumes the task, running its closure with `scratch`.
    pub fn run(self, scratch: &mut WorkerScratch) {
        (self.run)(scratch);
    }
}

impl std::fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Task")
    }
}

/// The unified work item: the three run types behind one dispatch.
///
/// # Examples
///
/// ```
/// use sched::{WorkItem, WorkKind, WorkerScratch};
///
/// let mut total = 0u32;
/// let item = WorkItem::fault_sweep(|_scratch: &mut WorkerScratch| total += 42);
/// assert_eq!(item.kind(), WorkKind::FaultSweep);
///
/// let mut scratch = WorkerScratch::new();
/// item.execute(&mut scratch);
/// assert_eq!(total, 42);
/// ```
#[derive(Debug)]
pub enum WorkItem<'a> {
    /// A fault-simulation chunk.
    FaultSweep(Task<'a>),
    /// A Table 1 power session.
    PowerSession(Task<'a>),
    /// A campaign job attempt.
    CampaignJob(Task<'a>),
}

impl<'a> WorkItem<'a> {
    /// Wraps `run` as an item of the given kind.
    pub fn new(kind: WorkKind, run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        let task = Task::new(run);
        match kind {
            WorkKind::FaultSweep => Self::FaultSweep(task),
            WorkKind::PowerSession => Self::PowerSession(task),
            WorkKind::CampaignJob => Self::CampaignJob(task),
        }
    }

    /// A [`WorkKind::FaultSweep`] item.
    pub fn fault_sweep(run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        Self::new(WorkKind::FaultSweep, run)
    }

    /// A [`WorkKind::PowerSession`] item.
    pub fn power_session(run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        Self::new(WorkKind::PowerSession, run)
    }

    /// A [`WorkKind::CampaignJob`] item.
    pub fn campaign_job(run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        Self::new(WorkKind::CampaignJob, run)
    }

    /// The item's run type.
    pub fn kind(&self) -> WorkKind {
        match self {
            Self::FaultSweep(_) => WorkKind::FaultSweep,
            Self::PowerSession(_) => WorkKind::PowerSession,
            Self::CampaignJob(_) => WorkKind::CampaignJob,
        }
    }

    /// Runs the item on the claiming worker — the one dispatch every run
    /// type goes through.
    pub fn execute(self, scratch: &mut WorkerScratch) {
        match self {
            Self::FaultSweep(task) | Self::PowerSession(task) | Self::CampaignJob(task) => {
                task.run(scratch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_constructors() {
        for kind in [
            WorkKind::FaultSweep,
            WorkKind::PowerSession,
            WorkKind::CampaignJob,
        ] {
            let item = WorkItem::new(kind, |_| {});
            assert_eq!(item.kind(), kind);
        }
        assert_eq!(WorkItem::fault_sweep(|_| {}).kind(), WorkKind::FaultSweep);
        assert_eq!(
            WorkItem::power_session(|_| {}).kind(),
            WorkKind::PowerSession
        );
        assert_eq!(WorkItem::campaign_job(|_| {}).kind(), WorkKind::CampaignJob);
    }

    #[test]
    fn execute_hands_the_worker_scratch_to_the_closure() {
        let mut scratch = WorkerScratch::new();
        scratch.get_or_insert_with(|| 5u64);
        let item = WorkItem::campaign_job(|scratch: &mut WorkerScratch| {
            *scratch.get_or_insert_with(|| 0u64) += 1;
        });
        item.execute(&mut scratch);
        assert_eq!(scratch.get_mut::<u64>(), Some(&mut 6));
    }
}
