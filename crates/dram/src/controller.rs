//! The memory controller / simulator front end.

use crate::bank::{AccessClass, Bank};
use crate::config::DramConfig;
use crate::energy::DramEnergy;
use crate::request::{Request, RequestId, RequestKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// The id returned by [`DramSimulator::enqueue`].
    pub id: RequestId,
    /// When the request became eligible.
    pub issue_ns: f64,
    /// When its first burst started service.
    pub start_ns: f64,
    /// When its last burst's data completed.
    pub finish_ns: f64,
    /// Read or write.
    pub kind: RequestKind,
    /// Total bytes transferred.
    pub bytes: usize,
}

impl CompletedRequest {
    /// Queueing + service latency.
    pub fn latency_ns(&self) -> f64 {
        self.finish_ns - self.issue_ns
    }
}

/// Aggregate counters of one controller (one channel), as reported in
/// closed-loop timing mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ChannelStats {
    /// Requests served.
    pub requests: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Row activations (row-buffer misses + conflicts).
    pub activates: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Data-bus occupancy, ns.
    pub busy_ns: f64,
    /// Completion time of the channel's last burst, ns.
    pub makespan_ns: f64,
}

impl ChannelStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Data-bus busy fraction of the channel's makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        (self.busy_ns / self.makespan_ns).min(1.0)
    }

    /// Fraction of column accesses that hit the open row.
    pub fn row_hit_rate(&self) -> f64 {
        let accesses = self.activates + self.row_hits;
        if accesses == 0 {
            return 0.0;
        }
        self.row_hits as f64 / accesses as f64
    }
}

/// A cycle-approximate LPDDR3 memory controller.
///
/// Requests are served in a FR-FCFS-lite order: among eligible
/// requests the controller prefers row-buffer hits within a small
/// reorder window, otherwise oldest-first. Block requests are split
/// into bursts; banks pipeline while the shared data bus serializes —
/// so bulk sequential traffic approaches peak bandwidth while random
/// traffic pays activate/precharge latency, the two behaviours the
/// COMPASS weight-replacement schedule is sensitive to.
///
/// # Example
///
/// ```
/// use pim_dram::{DramConfig, DramSimulator, Request, RequestKind};
///
/// let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
/// // Stream 64 KiB of weights.
/// sim.enqueue(Request::new(0, 0, RequestKind::Read, 64 * 1024));
/// let done = sim.service_pending();
/// let seconds = done[0].finish_ns * 1e-9;
/// let gbps = 64.0 * 1024.0 / done[0].finish_ns; // bytes per ns
/// assert!(gbps > 4.0, "sequential stream should be near peak, got {gbps}");
/// ```
#[derive(Debug, Clone)]
pub struct DramSimulator {
    cfg: DramConfig,
    banks: Vec<Bank>,
    queue: VecDeque<(RequestId, Request)>,
    next_id: u64,
    bus_free_ns: f64,
    next_refresh_ns: f64,
    refreshes: u64,
    activates: u64,
    row_hits: u64,
    served: u64,
    data_busy_ns: f64,
    read_bits: u64,
    write_bits: u64,
    makespan_ns: f64,
    reorder_window: usize,
}

impl DramSimulator {
    /// Creates an idle simulator.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![Bank::new(); cfg.banks];
        let next_refresh_ns = cfg.t_refi as f64 * cfg.cycle_ns();
        Self {
            cfg,
            banks,
            queue: VecDeque::new(),
            next_id: 0,
            bus_free_ns: 0.0,
            next_refresh_ns,
            refreshes: 0,
            activates: 0,
            row_hits: 0,
            served: 0,
            data_busy_ns: 0.0,
            read_bits: 0,
            write_bits: 0,
            makespan_ns: 0.0,
            reorder_window: 8,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Adds a request to the queue, returning its id.
    pub fn enqueue(&mut self, request: Request) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.queue.push_back((id, request));
        id
    }

    /// Serves one request immediately, bypassing the queue and the
    /// FR-FCFS reorder window. The closed-loop front end uses this:
    /// requests arrive one engine event at a time (cores block on
    /// completion), so arrival order *is* service order and the
    /// completion's `finish_ns` feeds straight back into the chip's
    /// critical path.
    pub fn service_one(&mut self, request: Request) -> CompletedRequest {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.serve(id, request)
    }

    /// Serves everything currently queued, FR-FCFS order, returning
    /// the completions. Event-driven front ends enqueue each instant's
    /// arrivals and then drain once, so every request issued at one
    /// timestamp is visible to the pick before any of them is served.
    pub fn service_pending(&mut self) -> Vec<CompletedRequest> {
        let mut done = Vec::with_capacity(self.queue.len());
        while !self.queue.is_empty() {
            let idx = self.pick_next();
            let (id, req) = self.queue.remove(idx).expect("index in range");
            done.push(self.serve(id, req));
        }
        done
    }

    /// FR-FCFS-lite: among the oldest `reorder_window` requests whose
    /// issue time has been reached, prefer a row-buffer hit; fall back
    /// to the globally oldest request.
    fn pick_next(&self) -> usize {
        let horizon = self
            .queue
            .iter()
            .take(self.reorder_window)
            .map(|(_, r)| r.issue_ns)
            .fold(f64::INFINITY, f64::min)
            .max(self.makespan_ns);
        let window = self.queue.len().min(self.reorder_window);
        for (i, (_, req)) in self.queue.iter().take(window).enumerate() {
            if req.issue_ns <= horizon {
                let (bank, row) = self.cfg.map_address(req.addr);
                if self.banks[bank].classify(row) == AccessClass::RowHit {
                    return i;
                }
            }
        }
        // Oldest eligible request (queue is FIFO by construction).
        0
    }

    fn serve(&mut self, id: RequestId, req: Request) -> CompletedRequest {
        let cyc = self.cfg.cycle_ns();
        let burst_time = self.cfg.t_ccd as f64 * cyc;
        let is_write = req.kind == RequestKind::Write;
        let mut t = req.issue_ns.max(0.0);
        let mut start_ns = f64::INFINITY;
        let mut finish_ns = t;
        let bursts = req.bytes.div_ceil(self.cfg.burst_bytes).max(1);
        if bursts > 64 {
            return self.serve_bulk(id, req, bursts);
        }
        for b in 0..bursts {
            let addr = req.addr + (b * self.cfg.burst_bytes) as u64;
            self.apply_refresh(t);
            let (bank_idx, row) = self.cfg.map_address(addr);
            let service_start = t.max(self.banks[bank_idx].ready_ns());
            start_ns = start_ns.min(service_start);
            let (data_ready, class) = self.banks[bank_idx].access(&self.cfg, t, row, is_write);
            if class != AccessClass::RowHit {
                self.activates += 1;
            } else {
                self.row_hits += 1;
            }
            // Shared data bus: one burst at a time.
            let bus_done = data_ready.max(self.bus_free_ns + burst_time);
            self.bus_free_ns = bus_done;
            finish_ns = bus_done;
            // Next burst of this request can issue immediately after
            // this one's column command; approximate by advancing to
            // the bus handoff minus the CAS latency floor.
            t = self.banks[bank_idx].ready_ns();
        }
        let bits = (req.bytes * 8) as u64;
        if is_write {
            self.write_bits += bits;
        } else {
            self.read_bits += bits;
        }
        self.served += 1;
        self.data_busy_ns += bursts as f64 * burst_time;
        self.makespan_ns = self.makespan_ns.max(finish_ns);
        CompletedRequest {
            id,
            issue_ns: req.issue_ns,
            start_ns: if start_ns.is_finite() { start_ns } else { req.issue_ns },
            finish_ns,
            kind: req.kind,
            bytes: req.bytes,
        }
    }

    /// Closed-form fast path for large sequential transfers (weight
    /// streams): per-burst simulation would dominate runtime, and for
    /// a sequential stream the shared data bus is the binding
    /// constraint once the first access has opened its row. Activate
    /// counts and refresh stalls are applied analytically, so energy
    /// and bandwidth match the per-burst path closely.
    fn serve_bulk(&mut self, id: RequestId, req: Request, bursts: usize) -> CompletedRequest {
        let cyc = self.cfg.cycle_ns();
        let burst_time = self.cfg.t_ccd as f64 * cyc;
        let is_write = req.kind == RequestKind::Write;
        let t = req.issue_ns.max(0.0);
        self.apply_refresh(t);
        // First access pays the usual bank latency.
        let (bank_idx, row) = self.cfg.map_address(req.addr);
        let service_start = t.max(self.banks[bank_idx].ready_ns());
        let (first_ready, class) = self.banks[bank_idx].access(&self.cfg, t, row, is_write);
        let first_activate = (class != crate::bank::AccessClass::RowHit) as u64;
        self.activates += first_activate;
        // Remaining rows each cost one activate (banks rotate, so the
        // activations hide behind the streaming data bus); every other
        // burst of the stream hits its open row.
        let rows_touched = (req.addr + req.bytes as u64 - 1) / self.cfg.row_bytes as u64
            - req.addr / self.cfg.row_bytes as u64;
        self.activates += rows_touched;
        self.row_hits += (bursts as u64).saturating_sub(first_activate + rows_touched);
        // Refresh stalls crossed during the stream.
        let stream_time = bursts as f64 * burst_time;
        let start_bus = first_ready.max(self.bus_free_ns + burst_time) - burst_time;
        let mut finish = start_bus + stream_time;
        let rfc_ns = self.cfg.t_rfc as f64 * cyc;
        while finish >= self.next_refresh_ns {
            let end = self.next_refresh_ns + rfc_ns;
            for bank in &mut self.banks {
                bank.refresh_until(end);
            }
            self.refreshes += 1;
            self.next_refresh_ns += self.cfg.t_refi as f64 * cyc;
            finish += rfc_ns;
        }
        self.bus_free_ns = finish;
        for bank in &mut self.banks {
            bank.refresh_until(finish); // stream occupied all banks; rows closed
        }
        let bits = (req.bytes * 8) as u64;
        if is_write {
            self.write_bits += bits;
        } else {
            self.read_bits += bits;
        }
        self.served += 1;
        self.data_busy_ns += stream_time;
        self.makespan_ns = self.makespan_ns.max(finish);
        CompletedRequest {
            id,
            issue_ns: req.issue_ns,
            start_ns: service_start,
            finish_ns: finish,
            kind: req.kind,
            bytes: req.bytes,
        }
    }

    /// All-bank refresh every tREFI: banks stall for tRFC and rows
    /// close.
    fn apply_refresh(&mut self, now_ns: f64) {
        let cyc = self.cfg.cycle_ns();
        while now_ns >= self.next_refresh_ns {
            let end = self.next_refresh_ns + self.cfg.t_rfc as f64 * cyc;
            for bank in &mut self.banks {
                bank.refresh_until(end);
            }
            self.refreshes += 1;
            self.next_refresh_ns += self.cfg.t_refi as f64 * cyc;
        }
    }

    /// Total simulated time (completion of the last burst so far).
    pub fn makespan_ns(&self) -> f64 {
        self.makespan_ns
    }

    /// Energy consumed so far (including background power over the
    /// makespan).
    pub fn energy(&self) -> DramEnergy {
        DramEnergy::from_counts(
            &self.cfg,
            self.activates,
            self.refreshes,
            self.read_bits,
            self.write_bits,
            self.makespan_ns,
        )
    }

    /// Row-buffer activate count (misses + conflicts).
    pub fn activates(&self) -> u64 {
        self.activates
    }

    /// Row-buffer hit count.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Aggregate counters for this controller.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            requests: self.served,
            read_bytes: self.read_bits / 8,
            write_bytes: self.write_bits / 8,
            activates: self.activates,
            row_hits: self.row_hits,
            busy_ns: self.data_busy_ns,
            makespan_ns: self.makespan_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DramSimulator {
        DramSimulator::new(DramConfig::lpddr3_1600())
    }

    /// Serves `requests` the way an event-driven front end feeds them:
    /// in issue-time order, one `service_pending` drain per distinct
    /// issue instant. Returns the completions in service order.
    fn drain(s: &mut DramSimulator, requests: &[Request]) -> Vec<CompletedRequest> {
        let mut requests = requests.to_vec();
        requests.sort_by(|a, b| a.issue_ns.total_cmp(&b.issue_ns));
        let mut done = Vec::with_capacity(requests.len());
        for instant in requests.chunk_by(|a, b| a.issue_ns == b.issue_ns) {
            for &request in instant {
                s.enqueue(request);
            }
            done.extend(s.service_pending());
        }
        done
    }

    fn read(addr: u64, bytes: usize) -> Request {
        Request::new(0, addr, RequestKind::Read, bytes)
    }

    #[test]
    fn single_read_latency_is_reasonable() {
        let done = drain(&mut sim(), &[read(0, 32)]);
        let lat = done[0].latency_ns();
        // tRCD + tCL + burst = (15 + 12 + 4) * 1.25 = 38.75 ns.
        assert!((lat - 38.75).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn sequential_stream_beats_random() {
        let sequential: Vec<_> = (0..256u64).map(|i| read(i * 32, 32)).collect();
        let seq_end = drain(&mut sim(), &sequential).last().unwrap().finish_ns;

        let mut rng_state = 12345u64;
        let random: Vec<_> = (0..256)
            .map(|_| {
                // xorshift addresses scattered over 64 MiB.
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                read((rng_state % (64 * 1024 * 1024)) & !31, 32)
            })
            .collect();
        let rnd_end = drain(&mut sim(), &random).last().unwrap().finish_ns;
        assert!(
            rnd_end > 1.5 * seq_end,
            "random ({rnd_end}) should be much slower than sequential ({seq_end})"
        );
    }

    #[test]
    fn bulk_read_approaches_peak_bandwidth() {
        let mut s = sim();
        let bytes = 1 << 20; // 1 MiB
        let done = drain(&mut s, &[read(0, bytes)]);
        let gbps = bytes as f64 / done[0].finish_ns;
        let peak = s.config().peak_bandwidth_gbps();
        assert!(gbps > 0.8 * peak, "bulk stream {gbps} GB/s vs peak {peak}");
    }

    #[test]
    fn refresh_fires_on_long_runs() {
        let mut s = sim();
        // Spread requests over > tREFI.
        let refi_ns = s.config().t_refi as f64 * s.config().cycle_ns();
        let spread: Vec<_> = (0..10u64)
            .map(|i| Request::at_ns(i as f64 * refi_ns, i * 32, RequestKind::Read, 32))
            .collect();
        drain(&mut s, &spread);
        assert!(s.refreshes >= 9, "refreshes {}", s.refreshes);
    }

    #[test]
    fn writes_are_tracked_separately() {
        let mut s = sim();
        drain(&mut s, &[Request::new(0, 0, RequestKind::Write, 64), read(4096, 64)]);
        assert_eq!(s.write_bits, 64 * 8);
        assert_eq!(s.read_bits, 64 * 8);
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut small = sim();
        drain(&mut small, &[read(0, 1024)]);
        let mut big = sim();
        drain(&mut big, &[read(0, 1024 * 1024)]);
        assert!(big.energy().total_nj() > 10.0 * small.energy().total_nj());
    }

    #[test]
    fn completions_cover_all_requests() {
        let requests: Vec<_> =
            (0..50u64).map(|i| Request::new(i, i * 64, RequestKind::Read, 64)).collect();
        let done = drain(&mut sim(), &requests);
        assert_eq!(done.len(), 50);
        let mut seen: Vec<_> = done.iter().map(|c| c.id).collect();
        seen.sort();
        assert_eq!(seen, (0..50).map(RequestId).collect::<Vec<_>>());
        for c in &done {
            assert!(c.finish_ns >= c.start_ns);
            assert!(c.start_ns >= c.issue_ns);
        }
    }

    /// The FR-FCFS-lite pick the in-line front end relies on: a
    /// row-buffer hit among the oldest eight queued requests overtakes
    /// older misses; one queued behind eight misses waits its turn.
    #[test]
    fn row_hit_overtakes_misses_only_within_the_reorder_window() {
        let cfg = DramConfig::lpddr3_1600();
        // Bank 0, row `k`: every `k > 0` conflicts with open row 0.
        let bank0_row = |k: u64| k * (cfg.row_bytes * cfg.banks) as u64;
        let served_order = |misses: u64| {
            let mut s = sim();
            drain(&mut s, &[read(bank0_row(0), 32)]); // opens bank 0, row 0
            let ids: Vec<_> = (1..=misses).map(|k| s.enqueue(read(bank0_row(k), 32))).collect();
            let hit = s.enqueue(read(bank0_row(0) + 32, 32));
            let order: Vec<_> = s.service_pending().iter().map(|c| c.id).collect();
            (ids, hit, order)
        };

        let (ids, hit, order) = served_order(7);
        assert_eq!(order[0], hit, "a hit eighth in line is served first");
        assert_eq!(order[1..], ids[..]);

        let (ids, hit, order) = served_order(8);
        assert_eq!(order[..8], ids[..], "a hit ninth in line does not overtake");
        assert_eq!(order[8], hit);
    }
}
