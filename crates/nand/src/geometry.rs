//! Device geometry and channel/die topology.

/// Physical organization of a multi-channel flash subsystem.
///
/// Real SSD capacity — and the parallelism behind both throughput and
/// wear-imbalance effects — comes from replicating dies behind
/// independent channels. The topology describes that replication: how
/// many channels the controller drives and how many dies share each
/// channel's bus (the timing model serializes within a die).
///
/// Blocks map onto dies *contiguously*: die `d` owns blocks
/// `d * blocks_per_die .. (d + 1) * blocks_per_die` (see
/// [`DeviceGeometry::die_of_block`]). Contiguous mapping keeps a service
/// region addressable as a block range while letting scenarios express
/// die-local wear skew and channel contention; striping across dies is
/// the allocator's job (see `mlcx_controller`'s `LogicalMap`).
///
/// # Example
///
/// ```
/// use mlcx_nand::Topology;
///
/// let t = Topology::new(4, 2);
/// assert_eq!(t.total_dies(), 8);
/// assert_eq!(t.channel_of_die(3), 1); // dies 2 and 3 share channel 1
/// assert_eq!(Topology::single(), Topology::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Independent channels (controller-to-flash buses).
    pub channels: usize,
    /// Dies attached to each channel.
    pub dies_per_channel: usize,
}

impl Topology {
    /// A topology of `channels` x `dies_per_channel` dies.
    pub fn new(channels: usize, dies_per_channel: usize) -> Self {
        Topology {
            channels,
            dies_per_channel,
        }
    }

    /// The degenerate one-channel, one-die topology — the paper's
    /// single-target evaluation setup, and the default everywhere.
    pub fn single() -> Self {
        Topology::new(1, 1)
    }

    /// Total dies across every channel.
    pub fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel
    }

    /// The channel a die hangs off: dies are numbered channel-major, so
    /// die `d` sits on channel `d / dies_per_channel`.
    pub fn channel_of_die(&self, die: usize) -> usize {
        debug_assert!(die < self.total_dies());
        die / self.dies_per_channel.max(1)
    }

    /// Whether the topology is well-formed (no zero dimension).
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.dies_per_channel == 0 {
            return Err(format!(
                "degenerate topology {}x{} dies",
                self.channels, self.dies_per_channel
            ));
        }
        Ok(())
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::single()
    }
}

/// Physical organization of the simulated NAND subsystem.
///
/// The paper's case study is a 4 KiB-page MLC device; the spare area holds
/// the ECC parity (up to 130 bytes at `t = 65`) plus file-system metadata,
/// matching the 224-byte spare of contemporary 4 KiB-page parts.
///
/// `blocks` counts blocks across the *whole* subsystem; the
/// [`Topology`] partitions them over dies ([`DeviceGeometry::die_of_block`]),
/// so a single-die geometry is exactly the paper's device.
///
/// # Example
///
/// ```
/// use mlcx_nand::DeviceGeometry;
///
/// let g = DeviceGeometry::date2012();
/// assert_eq!(g.page_bytes, 4096);
/// assert!(g.spare_bytes >= 130); // worst-case BCH parity fits
/// assert_eq!(g.topology.total_dies(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceGeometry {
    /// Erase blocks in the subsystem (across all dies).
    pub blocks: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Main-area bytes per page.
    pub page_bytes: usize,
    /// Spare-area bytes per page.
    pub spare_bytes: usize,
    /// Channel/die organization; blocks must divide evenly over its dies.
    pub topology: Topology,
}

impl DeviceGeometry {
    /// The paper's case-study geometry (sized small enough to simulate
    /// whole-device workloads comfortably): one die behind one channel.
    pub fn date2012() -> Self {
        DeviceGeometry {
            blocks: 64,
            pages_per_block: 128,
            page_bytes: 4096,
            spare_bytes: 224,
            topology: Topology::single(),
        }
    }

    /// The same per-die geometry replicated over `channels` channels
    /// with `dies_per_channel` dies each: total capacity scales with the
    /// die count, page/block shape stays the paper's.
    pub fn date2012_topology(channels: usize, dies_per_channel: usize) -> Self {
        let single = Self::date2012();
        DeviceGeometry {
            blocks: single.blocks * channels * dies_per_channel,
            topology: Topology::new(channels, dies_per_channel),
            ..single
        }
    }

    /// Total pages in the subsystem.
    pub fn total_pages(&self) -> usize {
        self.blocks * self.pages_per_block
    }

    /// Blocks owned by each die.
    pub fn blocks_per_die(&self) -> usize {
        self.blocks / self.topology.total_dies().max(1)
    }

    /// The die a block lives on (contiguous partition).
    pub fn die_of_block(&self, block: usize) -> usize {
        debug_assert!(block < self.blocks);
        block / self.blocks_per_die().max(1)
    }

    /// The block range owned by a die.
    pub fn die_blocks(&self, die: usize) -> std::ops::Range<usize> {
        let per = self.blocks_per_die();
        die * per..(die + 1) * per
    }

    /// Whether the geometry is well-formed: non-zero dimensions, a valid
    /// topology, and blocks dividing evenly over the dies.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks == 0 || self.pages_per_block == 0 || self.page_bytes == 0 {
            return Err("degenerate device geometry".into());
        }
        self.topology.validate()?;
        let dies = self.topology.total_dies();
        if !self.blocks.is_multiple_of(dies) {
            return Err(format!(
                "{} blocks do not divide evenly over {} dies",
                self.blocks, dies
            ));
        }
        Ok(())
    }
}

impl Default for DeviceGeometry {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let g = DeviceGeometry::date2012();
        assert_eq!(g.total_pages(), 64 * 128);
        assert_eq!(g.blocks_per_die(), 64);
        assert_eq!(g.die_of_block(63), 0);
        g.validate().unwrap();
    }

    #[test]
    fn topology_block_partition() {
        let g = DeviceGeometry::date2012_topology(4, 2);
        assert_eq!(g.blocks, 512);
        assert_eq!(g.topology.total_dies(), 8);
        assert_eq!(g.blocks_per_die(), 64);
        assert_eq!(g.die_of_block(0), 0);
        assert_eq!(g.die_of_block(63), 0);
        assert_eq!(g.die_of_block(64), 1);
        assert_eq!(g.die_of_block(511), 7);
        assert_eq!(g.die_blocks(1), 64..128);
        g.validate().unwrap();
    }

    #[test]
    fn validation_rejects_uneven_and_degenerate_topologies() {
        let mut g = DeviceGeometry::date2012();
        g.topology = Topology::new(3, 1); // 64 % 3 != 0
        assert!(g.validate().is_err());
        g.topology = Topology::new(0, 1);
        assert!(g.validate().is_err());
        g.topology = Topology::new(1, 0);
        assert!(g.validate().is_err());
        let g = DeviceGeometry {
            blocks: 0,
            ..DeviceGeometry::date2012()
        };
        assert!(g.validate().is_err());
    }
}
