//! # stream-arch — a software stream-processor simulator
//!
//! This crate models the *target architecture* of the GPU-ABiSort paper
//! (Greß & Zachmann, IPDPS 2006): a stream processor in the spirit of the
//! 2005/2006-era programmable GPU fragment pipeline, programmed in the
//! stream programming model (Brook-style):
//!
//! * **Streams** are ordered sets of elements living in stream memory.
//!   Logically they are 1D; physically they are laid out in a 2D grid
//!   (GPU texture) through a configurable 1D→2D mapping
//!   ([`layout::RowMajor2D`] or [`layout::ZOrder2D`]).
//! * **Substreams** are contiguous ranges — or, for hardware that supports
//!   it, sets of disjoint ranges — of a stream ([`stream::SubStream`]).
//! * **Kernels** are per-element programs. A kernel instance may
//!   - read a fixed number of elements *linearly* from each input stream
//!     (streaming read),
//!   - read arbitrary elements from *gather* streams (random-access read),
//!   - read values from *iterator streams* (index generators that cost no
//!     memory traffic),
//!   - and write a fixed number of elements *linearly* to each output
//!     substream (`push_onto_stream`).
//!     Random-access *writes* (scatter) are not expressible — exactly
//!     the restriction the paper designs around.
//! * **Stream operations** launch a kernel over every element of a
//!   substream. Each operation carries a fixed launch overhead; the work of
//!   all kernel instances is distributed over `p` processor units.
//!
//! On top of the functional simulation the crate keeps a detailed
//! [`metrics::Counters`] record (stream operations, kernel instances,
//! streaming reads/writes, gathers, texture-cache behaviour, bytes moved)
//! and converts it into a simulated running time via a calibrated
//! [`profile::GpuProfile`] cost model. This is the substitution for the
//! GeForce 6800 / 7800 hardware of the paper's evaluation: absolute times
//! differ, but the quantities the paper's claims rest on (operation counts,
//! total work, locality, scaling with `p`) are charged faithfully.
//!
//! The kernels are *actually executed* on the host CPU, on the calling
//! thread (see [`executor::StreamProcessor`]), so every experiment also
//! verifies functional correctness of the sorting algorithms.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod cache;
pub mod error;
pub mod executor;
pub mod kernel;
pub mod layout;
pub mod metrics;
pub mod profile;
pub mod stream;
pub mod telemetry;
pub mod transfer;
pub mod value;

pub use arena::{ArenaStats, StreamArena};
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use error::{Result, StreamError};
pub use executor::{ExecMode, StreamProcessor};
pub use kernel::{AccountingMode, GatherView, IterStream, KernelCtx, ReadView, WriteView};
pub use layout::{Addr2D, Layout, Mapping1Dto2D, RowMajor2D, ZOrder2D};
pub use metrics::{CostBreakdown, Counters, SimTime};
pub use profile::GpuProfile;
pub use stream::{BlockSet, Stream, SubStream};
pub use telemetry::{HistogramSummary, LogHistogram, TraceEvent, TraceSink};
pub use transfer::{BusKind, DeviceLink, TransferModel};
pub use value::{Node, StreamElement, Value, NULL_INDEX};
