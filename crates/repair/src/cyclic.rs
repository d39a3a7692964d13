//! Cyclic repair pipelining for requestors behind a limited edge link
//! (§4.1).
//!
//! The basic linear path delivers every slice from its last helper, so a
//! slow edge link into the requestor throttles the whole repair. The cyclic
//! version, [`RepairDag::cyclic`], spreads the deliveries over `k − 1`.

use simnet::Schedule;

use crate::{RepairDag, SingleRepairJob};

/// Builds the cyclic repair-pipelining schedule: the job as a
/// [`RepairDag::cyclic`], lowered by [`RepairDag::schedule`].
pub fn schedule(job: &SingleRepairJob) -> Schedule {
    RepairDag::cyclic(&job.path(), job.requestor, job.layout).schedule()
}
