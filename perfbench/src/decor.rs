//! Pass-through decorators that time calls into a layer's public trait.
//!
//! Each wraps one seam of the library — [`PageStore`] (kvdb → core),
//! [`CacheBackend`] (fssim → core or classic) and [`BlockDevice`] (cache →
//! blockdev) — opens a span per call and forwards it unchanged. They never
//! touch a clock or a device, so a traced stack's simulated time is the
//! untraced stack's (the transparency test holds them to that).

use std::ops::Range;

use blockdev::{BatchReport, BlockDevice, Disk, DiskStats, IoError, IoLane, BLOCK_SIZE};
use fssim::{CacheBackend, CacheSnapshot};
use kvdb::{KvError, PageStore, StoreStats, PAGE_SIZE};

use crate::trace::{count, span};

/// Times a kvdb [`PageStore`] (the `core` boundary on kv).
pub struct TracedStore<S> {
    inner: S,
}

impl<S: PageStore> TracedStore<S> {
    pub fn new(inner: S) -> Self {
        TracedStore { inner }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        let _s = span("core.read");
        self.inner.read_page(id, buf)
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        let _s = span("core.commit");
        count("core.commit.pages", dirty.len() as u64);
        self.inner.commit_pages(dirty)
    }

    fn page_capacity(&self) -> u32 {
        self.inner.page_capacity()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Span names of one cache layer behind [`CacheBackend`].
#[derive(Clone, Copy, Debug)]
pub struct BackendNames {
    pub read: &'static str,
    pub write_block: &'static str,
    pub commit: &'static str,
    pub flush_all: &'static str,
    pub flush_barrier: &'static str,
}

pub const CORE: BackendNames = BackendNames {
    read: "core.read",
    write_block: "core.write_block",
    commit: "core.commit",
    flush_all: "core.flush_all",
    flush_barrier: "core.flush_barrier",
};

pub const CLASSIC: BackendNames = BackendNames {
    read: "classic.read",
    write_block: "classic.write_block",
    commit: "classic.commit",
    flush_all: "classic.flush_all",
    flush_barrier: "classic.flush_barrier",
};

/// Times a fssim [`CacheBackend`].
pub struct TracedBackend<B> {
    inner: B,
    names: BackendNames,
}

impl<B: CacheBackend> TracedBackend<B> {
    pub fn new(inner: B, names: BackendNames) -> Self {
        TracedBackend { inner, names }
    }
}

impl<B: CacheBackend + 'static> CacheBackend for TracedBackend<B> {
    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        let _s = span(self.names.read);
        self.inner.read(blk, buf)
    }

    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String> {
        let _s = span(self.names.write_block);
        self.inner.write_block(blk, data)
    }

    fn commit_txn(&mut self, blocks: &[(u64, Box<[u8; BLOCK_SIZE]>)]) -> Result<(), String> {
        let _s = span(self.names.commit);
        self.inner.commit_txn(blocks)
    }

    fn supports_txn(&self) -> bool {
        self.inner.supports_txn()
    }

    fn flush_all(&mut self) -> Result<(), String> {
        let _s = span(self.names.flush_all);
        self.inner.flush_all()
    }

    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.inner.read_nocache(blk, buf)
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    fn cache_snapshot(&self) -> CacheSnapshot {
        self.inner.cache_snapshot()
    }

    fn flush_barrier(&mut self) -> Result<(), String> {
        let _s = span(self.names.flush_barrier);
        self.inner.flush_barrier()
    }

    fn metadata_ranges(&self) -> Vec<Range<usize>> {
        self.inner.metadata_ranges()
    }

    /// Downcasts reach the wrapped backend, so stats readers work on
    /// traced and untraced stacks alike.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Times a [`BlockDevice`] (the `blockdev` boundary on the fio stacks).
pub struct TracedDisk {
    inner: Disk,
}

impl TracedDisk {
    pub fn new(inner: Disk) -> Self {
        TracedDisk { inner }
    }
}

impl BlockDevice for TracedDisk {
    fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let _s = span("blockdev.read");
        self.inner.read_block(blk, buf)
    }

    fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
        let _s = span("blockdev.write");
        self.inner.write_block(blk, buf)
    }

    fn write_blocks(&self, reqs: &[(u64, &[u8])], lane: IoLane) -> BatchReport {
        let _s = span("blockdev.write_blocks");
        count("blockdev.write_blocks.blocks", reqs.len() as u64);
        self.inner.write_blocks(reqs, lane)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}
