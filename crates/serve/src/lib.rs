//! # dpc-serve
//!
//! **Concurrent epoch-snapshot serving** for streaming Density Peak
//! Clustering: one writer thread drives a
//! [`StreamingDpc`](dpc_stream::StreamingDpc) engine through commit epochs
//! while any number of reader threads answer queries from the newest
//! *published* epoch — wait-free, without ever blocking the writer or
//! observing a torn state.
//!
//! The engine freezes each committed epoch as an immutable
//! [`EpochSnapshot`](dpc_stream::EpochSnapshot) (ρ, δ, µ, labels, the
//! engine's shared point → centre assignment, and a flat grid for
//! ε-queries) and hands it to a
//! [`SnapshotCell`] — an append-only snapshot chain readers walk with one
//! atomic load per published epoch. Three query families:
//!
//! * **point lookup** — [`SnapshotReader::cluster_of`]: which cluster is
//!   point *h* in, answered as the cluster's stable centre handle;
//! * **ε-neighbourhood** — [`SnapshotReader::eps_neighbors`]: all points
//!   within `eps` of a coordinate, bit-identical to querying the engine's
//!   index at the published epoch;
//! * **subscription** — [`SnapshotReader::deltas_since`]: the per-epoch
//!   [`ClusterDelta`](dpc_stream::ClusterDelta)s since a given epoch,
//!   replayed from a bounded ring, with a documented
//!   [`Replay::Resync`] contract when the subscriber falls behind.
//!
//! ```
//! use dpc_core::naive_reference::NaiveReferenceIndex;
//! use dpc_core::{Dataset, Point};
//! use dpc_serve::Server;
//! use dpc_stream::{StreamParams, StreamingDpc};
//!
//! let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.1), (4.0, 4.0), (4.1, 4.1)]);
//! let engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
//! let mut server = Server::new(engine, 64);
//!
//! let mut reader = server.reader(); // move to a query thread in real use
//! let h = reader.current().handle_at(0);
//!
//! // The writer commits an epoch; the reader sees it on its next query.
//! server.engine_mut().insert(Point::new(0.05, 0.05)).unwrap();
//! assert_eq!(reader.current().epoch(), server.engine().epoch());
//! assert!(reader.cluster_of(h).is_some());
//! ```
//!
//! Reader latencies and writer epoch phases publish through the same
//! [`dpc_obs`] recorder, so one Chrome trace shows both sides (see
//! `docs/SERVING.md` and `docs/OBSERVABILITY.md` at the repository root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod reader;
pub mod server;

pub use cell::{Replay, SnapshotCell};
pub use reader::SnapshotReader;
pub use server::Server;
