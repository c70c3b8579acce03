//! # rdma-fabric — a simulated RDMA network for the DArray reproduction
//!
//! Models the cluster interconnect of the paper's testbed (ConnectX-4
//! 100 Gbps InfiniBand) at the verb level, in `dsim` virtual time:
//!
//! * **Memory regions** ([`MemoryRegion`]) — registered memory addressable
//!   by one-sided verbs without involving the remote CPU.
//! * **One-sided RDMA WRITE / READ** — the paper transmits application data
//!   with one-sided WRITE (§4.5); BCL maps every remote access to RMA.
//!   A one-sided READ round trip costs ≈ 2 µs with the default
//!   [`NetConfig`], matching the paper's measurement.
//! * **Two-sided SEND/RECV** — protocol (coherence) messages.
//! * **RC queue-pair FIFO ordering** — per directed link, delivery times
//!   are monotone, so a WRITE posted before a SEND lands first. The
//!   [`Nic::rdma_write_send`] helper exploits this for data+notification.
//! * **Link serialization** — each directed link is a shared 100 Gbps
//!   resource; transmissions queue behind each other.
//! * **Selective signaling** (§4.5) — completion-queue polling cost is
//!   charged once every `signal_interval` posted verbs instead of per verb.
//!
//! The crate also hosts the [`CostModel`]: the calibrated CPU-side cost
//! constants (native access, atomic RMW, mutex, hash probe, ...) shared by
//! DArray, GAM and BCL so that their *relative* abstraction overheads match
//! the paper's Figure 1.

mod cost;
mod fabric;
mod fault;
mod net;
mod region;
#[cfg(feature = "tcp-transport")]
mod tcp;
mod transport;

pub use cost::CostModel;
pub use fabric::{Fabric, Nic, NicStats, NicStatsSnapshot};
pub use fault::{AsymmetricLoss, FaultPlan, Partition};
pub use net::NetConfig;
pub use region::MemoryRegion;
#[cfg(feature = "tcp-transport")]
pub use tcp::{TcpFabric, TcpOptions, TcpTransport};
pub use transport::{SimTransport, Transport, TransportStats, Wire};

/// Node identifier within a fabric (0-based, dense).
pub type NodeId = usize;
