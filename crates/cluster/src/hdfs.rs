//! HDFS-like chunked, replicated write path (§5.3.1): a name node picks a
//! replica pipeline per chunk; TeraGen streams rows into chunks.

use fssim::stack::StackConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ClusterReport, NetModel, Node};

/// An HDFS-like cluster: a name node (chunk→pipeline placement) over N
/// data nodes.
pub struct HdfsCluster {
    nodes: Vec<Node>,
    replicas: usize,
    chunk_bytes: u64,
    rng: StdRng,
    next_pipeline_start: usize,
}

impl HdfsCluster {
    /// HDFS data-path software overhead per append (packet processing,
    /// checksum, pipeline acks).
    pub const OP_OVERHEAD_NS: u64 = 50_000;

    /// TeraGen's client-side row generation rate (single mapper JVM with
    /// CRC checksumming ≈ 80 MB/s). At low replica counts the *client* is
    /// the bottleneck, which is why the paper's Fig. 10 gap between the
    /// two storage stacks widens as replication multiplies storage work.
    pub const CLIENT_NS_PER_MB: u64 = 12_000_000;

    /// Builds `n_nodes` data nodes, each with a stack built from `cfg`.
    pub fn new(n_nodes: usize, replicas: usize, cfg: &StackConfig, chunk_bytes: u64) -> Self {
        assert!(replicas >= 1 && replicas <= n_nodes, "1 ≤ replicas ≤ nodes");
        let net = NetModel::ten_gbe();
        let nodes = (0..n_nodes)
            .map(|i| Node::new(i, cfg, net, Self::OP_OVERHEAD_NS))
            .collect();
        HdfsCluster {
            nodes,
            replicas,
            chunk_bytes,
            rng: StdRng::seed_from_u64(0x4DF5),
            next_pipeline_start: 0,
        }
    }

    /// The name node's placement: `replicas` distinct nodes, rotating so
    /// load spreads evenly (HDFS randomises; rotation keeps determinism).
    fn place(&mut self) -> Vec<usize> {
        let n = self.nodes.len();
        let start = self.next_pipeline_start;
        self.next_pipeline_start = (self.next_pipeline_start + 1) % n;
        (0..self.replicas).map(|k| (start + k) % n).collect()
    }

    /// Power-fails data node `node` now; it reboots through recovery.
    pub fn crash_node(&mut self, node: usize, seed: u64) {
        self.nodes[node].crash(seed);
    }

    /// Writes a TeraGen-style dataset of `total_bytes` (100 B rows,
    /// buffered into ~16 KB appends), replicated `replicas`-way. Returns
    /// the aggregate report.
    pub fn run_teragen(mut self, total_bytes: u64, write_bytes: usize) -> ClusterReport {
        let mut written = 0u64;
        let mut chunk_idx = 0u64;
        let mut buf = vec![0u8; write_bytes];
        while written < total_bytes {
            // One chunk: place it, create the chunk file on each replica,
            // stream appends down the pipeline.
            let pipeline = self.place();
            let chunk_name = format!("chunk-{chunk_idx:06}");
            for &ni in &pipeline {
                self.nodes[ni].create(&chunk_name);
            }
            let mut in_chunk = 0u64;
            while in_chunk < self.chunk_bytes && written < total_bytes {
                self.rng.fill(&mut buf[..]);
                let n = (write_bytes as u64)
                    .min(self.chunk_bytes - in_chunk)
                    .min(total_bytes - written) as usize;
                for &ni in &pipeline {
                    self.nodes[ni].append(&chunk_name, &buf[..n]);
                }
                in_chunk += n as u64;
                written += n as u64;
            }
            // HDFS finalises (hflushes) the chunk on close.
            for &ni in &pipeline {
                self.nodes[ni].fsync();
            }
            chunk_idx += 1;
        }
        let nodes = self.nodes.into_iter().map(Node::finish).collect();
        ClusterReport {
            label: format!("teragen r={}", self.replicas),
            nodes,
            client_ops: written / 100, // rows
            client_bytes: written,
            client_floor_ns: written / (1 << 20) * Self::CLIENT_NS_PER_MB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::System;

    #[test]
    fn replication_multiplies_node_traffic() {
        let run = |replicas: usize| {
            let cfg = StackConfig::tiny(System::Tinca);
            let cluster = HdfsCluster::new(4, replicas, &cfg, 1 << 20);
            cluster.run_teragen(2 << 20, 16 << 10)
        };
        let r1 = run(1);
        let r3 = run(3);
        assert!(r1.exec_seconds() > 0.0);
        // 3 replicas ⇒ ~3× aggregate bytes ⇒ ~3× total flushes.
        let ratio = r3.total_clflush() as f64 / r1.total_clflush() as f64;
        assert!((2.0..4.5).contains(&ratio), "clflush ratio {ratio}");
        assert!(r3.exec_seconds() > r1.exec_seconds());
    }

    #[test]
    fn chunks_rotate_across_nodes() {
        let cfg = StackConfig::tiny(System::Tinca);
        let cluster = HdfsCluster::new(4, 1, &cfg, 1 << 20);
        let report = cluster.run_teragen(4 << 20, 16 << 10);
        // 4 chunks, one per node: every node holds exactly one file.
        for n in &report.nodes {
            assert_eq!(n.files, 1, "node {} files {}", n.node_id, n.files);
        }
    }

    #[test]
    fn cluster_tolerates_a_node_crash_mid_run() {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut cluster = HdfsCluster::new(4, 2, &cfg, 1 << 20);
        // Crash node 1 right after formatting, before its first command:
        // it reboots through recovery and then serves its share of chunks.
        cluster.crash_node(1, 42);
        let report = cluster.run_teragen(3 << 20, 16 << 10);
        assert_eq!(report.client_bytes, 3 << 20);
        // Every node still finished with its chunks intact.
        for n in &report.nodes {
            assert!(n.files > 0, "node {} lost its chunks", n.node_id);
        }
    }

    #[test]
    fn teragen_writes_exact_volume_across_chunks() {
        // 16 000 B appends do not divide a 1 MiB chunk: the last append of
        // each chunk is cut at the boundary.
        let cfg = StackConfig::tiny(System::Tinca);
        let report = HdfsCluster::new(4, 2, &cfg, 1 << 20).run_teragen(3 << 20, 16_000);
        assert_eq!(report.client_bytes, 3 << 20);
        assert_eq!(report.client_ops, (3 << 20) / 100);
        // Chunk k goes to nodes k and k + 1: one file per chunk per replica.
        let files: Vec<usize> = report.nodes.iter().map(|n| n.files).collect();
        assert_eq!(files, [1, 2, 2, 1]);
        let stored: u64 = report.nodes.iter().map(|n| n.fs.bytes_written).sum();
        assert_eq!(stored, 2 * (3 << 20), "every replica holds every byte");
    }

    #[test]
    fn teragen_is_pure_write() {
        let cfg = StackConfig::tiny(System::Classic);
        let report = HdfsCluster::new(4, 2, &cfg, 1 << 20).run_teragen(2 << 20, 16 << 10);
        for n in &report.nodes {
            assert_eq!(n.fs.read_ops, 0, "node {} read", n.node_id);
        }
    }

    #[test]
    fn teragen_is_deterministic() {
        let run = || {
            let cfg = StackConfig::tiny(System::Tinca);
            let report = HdfsCluster::new(4, 2, &cfg, 1 << 20).run_teragen(2 << 20, 16 << 10);
            report
                .nodes
                .iter()
                .map(|n| (n.sim_ns, n.nvm.clflush, n.disk.writes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn too_many_replicas_rejected() {
        let cfg = StackConfig::tiny(System::Tinca);
        let _ = HdfsCluster::new(2, 3, &cfg, 1 << 20);
    }
}
