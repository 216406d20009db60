// Test code may unwrap/expect/panic freely; non-test code is held to the
// disallowed-methods ban in this crate's clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

//! # blockdev — simulated SSD and HDD block devices
//!
//! The Tinca paper evaluates its NVM cache on top of a 128 GB SATA SSD and,
//! for Fig. 12(a), a hard disk. This crate provides that disk substrate:
//! a [`BlockDevice`] trait plus [`SimDisk`], an in-memory sparse block
//! store with per-[`DiskKind`] latency models charged against the stack's
//! shared `nvmsim::SimClock`.
//!
//! The evaluation observes *blocks written per operation* and the latency
//! class of the device, so the models are deliberately simple and
//! deterministic: fixed read/write latencies for SSDs; seek-distance +
//! rotational + transfer costs for HDDs.
//!
//! ```
//! use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
//! use nvmsim::SimClock;
//!
//! let clock = SimClock::new();
//! let disk = SimDisk::new(DiskKind::Ssd, 1024, clock.clone());
//! disk.write_block(7, &[0xAB; BLOCK_SIZE]).unwrap();
//! let mut buf = [0u8; BLOCK_SIZE];
//! disk.read_block(7, &mut buf).unwrap();
//! assert_eq!(buf[0], 0xAB);
//! assert_eq!(clock.now_ns(), disk.stats().busy_ns);
//! ```

mod device;
mod error;
mod fault;
mod latency;
mod lru;
mod sim;
mod stats;

pub use device::{BatchReport, BlockDevice, IoLane, BLOCK_SIZE};
pub use error::IoError;
pub use fault::{FaultPlan, FaultStats, FaultyDisk};
pub use latency::{DiskKind, LatencyModel};
pub use lru::{LruIter, LruList};
pub use sim::{Disk, SimDisk};
pub use stats::DiskStats;
