//! # rabitq-ivf — in-memory ANN indexes
//!
//! The application layer of the paper (Section 4): inverted-file indexes
//! pairing a KMeans coarse quantizer with
//!
//! * [`IvfRabitq`] — RaBitQ codes per bucket, the rotate-once query path,
//!   and **error-bound-based re-ranking** (no tuning parameter);
//! * [`IvfPq`] — the PQ/OPQ baseline with residual encoding, f32 or
//!   u8-fast-scan LUT scans, and conventional fixed-count re-ranking.

pub mod cancel;
pub mod common;
pub mod flat;
pub mod mips;
pub mod pq_ivf;
pub mod rabitq_ivf;

pub use cancel::CancelToken;
pub use common::{IvfConfig, RerankStrategy, SearchResult, TopK};
pub use flat::{FlatRabitq, RangeResult};
pub use mips::{FlatMips, MipsResult};
pub use pq_ivf::{IvfPq, PqVariant, ScanMode};
pub use rabitq_ivf::{IvfRabitq, SearchRequest, SearchScratch};
