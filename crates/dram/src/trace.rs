//! Aggregate statistics of a memory request stream: the request and
//! byte totals a chip's memory channel sent to DRAM.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Request and byte totals over a memory request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceStats {
    /// Number of requests.
    pub requests: usize,
    /// Total bytes read.
    pub read_bytes: usize,
    /// Total bytes written.
    pub write_bytes: usize,
}

impl TraceStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> usize {
        self.read_bytes + self.write_bytes
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests, {} B read, {} B written",
            self.requests, self.read_bytes, self.write_bytes
        )
    }
}
