//! Repair planning algorithms.
//!
//! This crate implements every repair scheme the paper designs or compares
//! against, as *planners*: given which nodes hold the helper blocks, where
//! the requestor(s) sit, and the slice layout, each scheme is a
//! [`RepairDag`] — helpers, and the links their partial sums travel. The
//! plan has two consumers: [`RepairDag::schedule`] times it (it lowers the
//! plan to a [`simnet::Schedule`], the slice-level disk reads, compute steps
//! and transfers the [`simnet`] simulator runs), and the `ecpipe` runtime's
//! executor walks it for real. [`Scheme::dag`] is the one mapping from a
//! single-block scheme's name to its plan, and both consumers call it. What
//! is still written out task by task is what no plan shape says — `Pipe-S`
//! ([`rp::schedule_pipe_s`]) and two-phase conventional multi-block repair
//! ([`multiblock::schedule_conventional`]) — and each module says why.
//!
//! Schemes:
//!
//! * [`dag`] — the plan value: chain, star, tree, the `f`-row chain and
//!   the cyclic chains as one type, and its lowering to simulator tasks.
//!
//! * [`conventional`] — the requestor fetches `k` whole blocks (§2.2),
//!   `O(k)` timeslots.
//! * [`ppr`] — partial-parallel repair \[Mitra et al., EuroSys'16\]: a binary
//!   aggregation tree, `ceil(log2(k+1))` timeslots (§2.2).
//! * [`rp`] — repair pipelining over a linear path of helpers in slices
//!   (§3.2), approaching one timeslot; plus the block-level and unparallelised
//!   baselines of §6.4 (`Pipe-B`, `Pipe-S`).
//! * [`RepairDag::cyclic`] — the cyclic extension for requestors behind a
//!   limited edge link (§4.1).
//! * [`rack_aware`] — Algorithm 1: rack-aware linear path selection (§4.2).
//! * [`weighted_path`] — Algorithm 2: optimal path selection for arbitrary
//!   heterogeneous links (§4.3), plus the brute-force oracle.
//! * [`multiblock`] — multi-block repair of `f` failures in one stripe
//!   (§4.4).
//! * [`fullnode`] — full-node recovery across many stripes with greedy
//!   least-recently-used helper scheduling (§3.3).
//! * [`analysis`] — the paper's closed-form timeslot formulas, used as
//!   oracles in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod conventional;
pub mod dag;
pub mod fullnode;
pub mod multiblock;
pub mod ppr;
pub mod rack_aware;
pub mod rp;
pub mod weighted_path;

mod job;

pub use dag::RepairDag;
pub use job::{MultiRepairJob, SingleRepairJob};

use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use simnet::{NodeId, Schedule};

/// The single-block repair schemes compared throughout the paper's
/// evaluation, and the shapes the `ecpipe` runtime executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scheme {
    /// Conventional repair: the requestor reads `k` whole blocks.
    Conventional,
    /// Partial-parallel repair (PPR): binary aggregation tree.
    Ppr,
    /// Repair pipelining over a linear path (the paper's contribution).
    RepairPipelining,
    /// Block-level pipelining along the helper path (`Pipe-B`, §6.4): each
    /// helper forwards a whole partially-repaired block, so only one link
    /// is active at a time and the repair takes `k` timeslots.
    BlockPipeline,
    /// Cyclic repair pipelining (parallel reads at the requestor, §4.1).
    CyclicRepairPipelining,
}

impl Scheme {
    /// The plan of this scheme for repairing one block from `helpers`, each
    /// a `(node, block, coefficient)` in path order, into `requestor`: a
    /// [`RepairDag::star`], a [`RepairDag::tree`], a one-row
    /// [`RepairDag::chain`] (over one slice per block for `Pipe-B`) or a
    /// [`RepairDag::cyclic`].
    pub fn dag(
        self,
        helpers: &[(NodeId, BlockId, u8)],
        requestor: NodeId,
        layout: SliceLayout,
    ) -> RepairDag {
        let chain = |layout| {
            let columns = helpers
                .iter()
                .map(|&(node, block, c)| (node, block, vec![c]));
            RepairDag::chain(columns, &[requestor], layout)
        };
        match self {
            Scheme::Conventional => RepairDag::star(helpers, requestor, layout),
            Scheme::Ppr => RepairDag::tree(helpers, requestor, layout),
            Scheme::RepairPipelining => chain(layout),
            Scheme::BlockPipeline => chain(SliceLayout::new(layout.block_size, layout.block_size)),
            Scheme::CyclicRepairPipelining => RepairDag::cyclic(helpers, requestor, layout),
        }
    }

    /// Builds the slice-level schedule of this scheme for a single-block
    /// repair job: the job's [`RepairDag`], lowered.
    pub fn schedule(self, job: &SingleRepairJob) -> Schedule {
        self.dag(&job.path(), job.requestor, job.layout).schedule()
    }
}

impl std::fmt::Display for Scheme {
    /// Formats as the short label used in the paper's figures (`Conv.`,
    /// `PPR`, `RP`, `Pipe-B`, `RP-cyclic`), uniform across reports and
    /// benches.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` honors width/alignment options in table output.
        f.pad(match self {
            Scheme::Conventional => "Conv.",
            Scheme::Ppr => "PPR",
            Scheme::RepairPipelining => "RP",
            Scheme::BlockPipeline => "Pipe-B",
            Scheme::CyclicRepairPipelining => "RP-cyclic",
        })
    }
}
