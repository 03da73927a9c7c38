//! The medium a file system charges its bytes to.
//!
//! A [`Backing`] is a pure function from a byte count to a virtual
//! duration: it keeps no state, so a store computes an operation's cost
//! outside its lock, and any store can charge any medium.

use ada_storagesim::{DeviceProfile, Link, Raid50, SimDuration};

/// A file system's medium: one device, a RAID-50 array, or a striped
/// parallel file system's storage servers.
#[derive(Debug, Clone)]
pub enum Backing {
    /// A single block device.
    Single(DeviceProfile),
    /// A RAID-50 array.
    Raid(Raid50),
    /// A PVFS/OrangeFS-like striped parallel file system. Files are
    /// striped round-robin across the storage servers; a client read
    /// fetches all stripes in parallel and streams them over the network,
    /// so an N-server operation costs
    /// `max(per-server time) max (network transfer of the whole file)`,
    /// a server's time being its disk time or its NIC time, whichever is
    /// longer. This matches the §4.2 cluster: one PVFS instance over three
    /// HDD nodes and one over three SSD nodes.
    Striped {
        /// One storage server's volume.
        server: DeviceProfile,
        /// Number of identical storage servers (at least one).
        servers: usize,
        /// Stripe unit in bytes (at least one; PVFS default 64 KiB).
        stripe_size: u64,
        /// Per-server network egress bandwidth, bytes/second.
        egress_bw: f64,
        /// The client's link.
        network: Link,
    },
}

impl Backing {
    /// Bytes the medium holds.
    pub fn capacity(&self) -> u64 {
        match self {
            Backing::Single(device) => device.capacity,
            Backing::Raid(array) => array.member.capacity * array.data_disks() as u64,
            Backing::Striped {
                server, servers, ..
            } => server.capacity * *servers as u64,
        }
    }

    /// Time to move `bytes` onto the medium (`write`) or off it.
    pub fn io_time(&self, bytes: u64, write: bool) -> SimDuration {
        match self {
            Backing::Single(device) if write => device.write_time(bytes),
            Backing::Single(device) => device.read_time(bytes),
            Backing::Raid(array) if write => array.write(bytes),
            Backing::Raid(array) => array.read(bytes),
            Backing::Striped {
                server,
                servers,
                stripe_size,
                egress_bw,
                network,
            } => {
                let mut disk = SimDuration::ZERO;
                for share in server_shares(bytes, *stripe_size, *servers) {
                    if share > 0 || bytes == 0 {
                        let d = if write {
                            server.write_time(share)
                        } else {
                            server.read_time(share)
                        };
                        // A server cannot ship data faster than its NIC.
                        let nic = SimDuration::from_secs_f64(share as f64 / egress_bw);
                        disk = disk.max(d.max(nic));
                    }
                }
                disk.max(network.transfer_time(bytes))
            }
        }
    }
}

/// Per-server byte share of a file of `len` bytes striped round-robin in
/// units of `stripe` bytes over `servers` servers.
fn server_shares(len: u64, stripe: u64, servers: usize) -> Vec<u64> {
    let full_stripes = len / stripe;
    let tail = len % stripe;
    let mut shares = vec![(full_stripes / servers as u64) * stripe; servers];
    let extra = full_stripes % servers as u64;
    for (i, share) in shares.iter_mut().enumerate() {
        if (i as u64) < extra {
            *share += stripe;
        }
    }
    shares[(full_stripes % servers as u64) as usize] += tail;
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_balance() {
        let len = 64 * 1024 * 10 + 100; // 10 stripes + tail
        let shares = server_shares(len, 64 * 1024, 3);
        assert_eq!(shares.iter().sum::<u64>(), len);
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        assert!(max - min <= 64 * 1024 + 100);
    }
}
