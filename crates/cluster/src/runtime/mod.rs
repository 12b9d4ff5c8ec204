//! Cluster runtimes.
//!
//! One protocol implementation — [`driver`] is the coordinator side (the
//! loop, quiesce, cleanup and every protocol handler, generic over a
//! transport), [`engine_core`] the engine side (one message handler
//! around one query engine) — and three transports that carry its
//! messages:
//!
//! * [`sim`] — deterministic, virtual-time, single-threaded: engines
//!   are stepped in place; used by the experiment harness to replay the
//!   paper's hour-long runs in seconds;
//! * [`threaded`] — one OS thread per engine over `std` channels;
//! * [`socket`] — one OS process per engine over loopback (or real) TCP,
//!   the same messages as length-framed binary frames.

pub mod driver;
pub mod engine_core;
pub mod sim;
pub mod socket;
pub mod threaded;
