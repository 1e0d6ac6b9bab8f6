//! Standalone timed loops over one layer's public functions each. A probe
//! names only its own layer's types, so an API change there costs one file.
//! All return reference nanoseconds per unit (see `calib`).

pub mod matching;
pub mod netsim;
pub mod simcore;
pub mod transport;
pub mod udp;
pub mod wire;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 7;
