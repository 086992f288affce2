//! The memory controller: per-channel queues, FR-FCFS scheduling, write
//! drain and refresh management (USIMM's baseline scheduler).
//!
//! Channels are stepped only when they can act. A scan that issues
//! nothing puts its channel to sleep until the earliest cycle one of its
//! queued requests, or a refresh, could issue a command; an arrival can
//! only move that wake cycle earlier. A channel skipped at a cycle is
//! exactly one whose per-cycle scan would have changed nothing, so the
//! command stream is the one a scan of every channel at every cycle
//! produces (DESIGN.md §18).

use crate::addrmap::{decode, Location, Topology};
use crate::dram::{Bank, Dram, RankReady, NEVER};
use crate::timing::DdrTiming;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xed_telemetry::registry::metrics;
use xed_telemetry::LocalHistogram;

/// A queued memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique request id (completion routing).
    pub id: u64,
    /// Decoded location.
    pub loc: Location,
    /// Writeback?
    pub is_write: bool,
    /// Cycle the request entered the queue.
    pub arrival: u64,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Read-queue capacity per channel.
    pub read_queue_cap: usize,
    /// Write-queue capacity per channel.
    pub write_queue_cap: usize,
    /// Start draining writes above this occupancy.
    pub write_drain_hi: usize,
    /// Stop draining below this occupancy.
    pub write_drain_lo: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            read_queue_cap: 64,
            write_queue_cap: 64,
            write_drain_hi: 40,
            write_drain_lo: 20,
        }
    }
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Reads completed.
    pub reads_done: u64,
    /// Writes issued to DRAM.
    pub writes_done: u64,
    /// Sum of read latencies (enqueue → last data beat), in cycles.
    pub total_read_latency: u64,
}

/// The command FR-FCFS would issue for a request, given its bank state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// READ/WRITE to the open row (a row hit).
    Column,
    /// ACT to the closed bank.
    Activate,
    /// PRE of a conflicting open row.
    Precharge,
}

/// The command serving a request for `row` at `bank`, and its earliest
/// cycle.
#[inline]
fn command_for(bank: &Bank, floor: &RankReady, row: u32, writes: bool) -> (Cmd, u64) {
    match bank.open_row {
        None => (Cmd::Activate, bank.act_ready_at(floor)),
        Some(open) if open == row => (
            Cmd::Column,
            if writes {
                bank.write_ready_at(floor, row)
            } else {
                bank.read_ready_at(floor, row)
            },
        ),
        Some(_) => (Cmd::Precharge, bank.pre_ready_at(floor)),
    }
}

/// What one channel tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Issued a READ/WRITE burst to this rank.
    Column(u32),
    /// Issued an ACT, PRE or REFRESH to this rank.
    Row(u32),
    /// Issued nothing; no queued request can issue before this cycle.
    Idle(u64),
}

/// One channel's queues and scheduling state.
#[derive(Debug)]
struct ChannelState {
    read_q: Vec<Request>,
    write_q: Vec<Request>,
    /// Writes left in the current drain episode. A drain episode is
    /// sized when it starts (queue depth minus low watermark), so
    /// continuously arriving writes cannot starve reads.
    drain_remaining: u32,
    /// Read-priority cycles guaranteed after each drain episode; a new
    /// episode cannot start while grace remains (unless the read queue
    /// is empty), so saturated channels alternate fairly.
    read_grace: u32,
    /// The next cycle the channel must be ticked.
    wake: u64,
    /// Bank-readiness table: copies of the channel's bank states
    /// (`rank * banks + bank`) and each rank's readiness floor, updated
    /// after every command on the channel.
    banks: Vec<Bank>,
    floors: Vec<RankReady>,
}

impl ChannelState {
    fn write_mode(&self) -> bool {
        !self.write_q.is_empty() && (self.drain_remaining > 0 || self.read_q.is_empty())
    }
}

/// The multi-channel memory controller.
#[derive(Debug)]
pub struct MemController {
    topology: Topology,
    dram: Dram,
    channels: Vec<ChannelState>,
    config: SchedConfig,
    /// (completion cycle, request id) min-heap.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Read-queue depth at each enqueue and per-read latency, owned by
    /// the run and published by [`Self::publish`].
    queue_depth: LocalHistogram,
    read_latency: LocalHistogram,
    /// Statistics.
    pub stats: SchedStats,
}

impl MemController {
    /// Builds the controller and its DRAM state.
    pub fn new(topology: Topology, timing: DdrTiming, config: SchedConfig) -> Self {
        let dram = Dram::new(timing, topology.channels, topology.ranks, topology.banks);
        let channels = (0..topology.channels)
            .map(|ch| ChannelState {
                read_q: Vec::new(),
                write_q: Vec::new(),
                drain_remaining: 0,
                read_grace: 0,
                wake: 0,
                banks: (0..topology.ranks)
                    .flat_map(|r| dram.channel(ch).rank(r).banks().iter().copied())
                    .collect(),
                floors: (0..topology.ranks)
                    .map(|r| dram.rank_ready(ch, r))
                    .collect(),
            })
            .collect();
        Self {
            topology,
            dram,
            channels,
            config,
            completions: BinaryHeap::new(),
            queue_depth: LocalHistogram::new(),
            read_latency: LocalHistogram::new(),
            stats: SchedStats::default(),
        }
    }

    /// The DRAM state (activity counters for the power model).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Attempts to enqueue a demand read. Returns `false` if the channel's
    /// read queue is full.
    pub fn enqueue_read(&mut self, id: u64, line_addr: u64, now: u64) -> bool {
        let loc = decode(&self.topology, line_addr);
        let q = &mut self.channels[loc.channel as usize].read_q;
        if q.len() >= self.config.read_queue_cap {
            return false;
        }
        q.push(Request {
            id,
            loc,
            is_write: false,
            arrival: now,
        });
        // Queue-depth sample per enqueue, into the run's own histogram:
        // a live registry record here would cost three atomic adds per
        // read.
        self.queue_depth.record(q.len() as u64);
        self.note_arrival(loc, false, now);
        true
    }

    /// Attempts to enqueue a writeback. Returns `false` if the channel's
    /// write queue is full.
    pub fn enqueue_write(&mut self, id: u64, line_addr: u64, now: u64) -> bool {
        let loc = decode(&self.topology, line_addr);
        let q = &mut self.channels[loc.channel as usize].write_q;
        if q.len() >= self.config.write_queue_cap {
            return false;
        }
        q.push(Request {
            id,
            loc,
            is_write: true,
            arrival: now,
        });
        self.note_arrival(loc, true, now);
        true
    }

    /// Moves the wake cycle of the arrival's channel earlier if the
    /// arrival lets the next scan do something: rescan at `now + 1` if it
    /// lets a drain episode start (the episode is sized from the queue
    /// depth at that scan), else wake when its own command is ready if it
    /// joins the queue being served. A request that flips the channel
    /// between read and write service is alone in the newly served queue,
    /// so its own readiness covers the flip.
    fn note_arrival(&mut self, loc: Location, is_write: bool, now: u64) {
        let c = &self.channels[loc.channel as usize];
        if c.wake <= now + 1 {
            return;
        }
        let starts_drain = is_write
            && c.drain_remaining == 0
            && c.write_q.len() >= self.config.write_drain_hi
            && (c.read_grace == 0 || c.read_q.is_empty());
        let wake = if starts_drain {
            now + 1
        } else if c.write_mode() == is_write {
            let i = (loc.rank * self.topology.banks + loc.bank) as usize;
            // indexing: the table holds ranks × banks entries and `loc`
            // was decoded against the same topology.
            let (_, at) = command_for(&c.banks[i], &c.floors[loc.rank as usize], loc.row, is_write);
            at.max(now + 1)
        } else {
            return;
        };
        let c = &mut self.channels[loc.channel as usize];
        c.wake = c.wake.min(wake);
    }

    /// Outstanding requests across all channels.
    pub fn pending(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.read_q.len() + c.write_q.len())
            .sum()
    }

    /// The next cycle at which [`Self::tick`] can do anything: a channel
    /// wakes or a read completes ([`NEVER`] when idle with nothing to
    /// refresh). Ticking at other cycles is allowed and changes nothing.
    pub fn next_event(&self) -> u64 {
        let completion = self.completions.peek().map_or(NEVER, |c| c.0 .0);
        self.channels
            .iter()
            .map(|c| c.wake)
            .fold(completion, u64::min)
    }

    /// Advances to memory cycle `now`: ticks every channel whose wake
    /// cycle has come (at most one command each), then fills `done` with
    /// the ids of reads whose data completed by `now`, oldest first.
    pub fn tick(&mut self, now: u64, done: &mut Vec<u64>) {
        for ch in 0..self.topology.channels {
            // indexing: one ChannelState per topology channel.
            if self.channels[ch as usize].wake <= now {
                self.tick_channel(ch, now);
            }
        }
        done.clear();
        while let Some(&Reverse((cycle, id))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            // alloc: `done` is the caller's buffer, reused every cycle.
            done.push(id);
        }
    }

    /// Accounts active-standby time through the end of cycle `now`, the
    /// run's last (see [`Dram::settle_active`]).
    pub fn settle(&mut self, now: u64) {
        self.dram.settle_active(now);
    }

    /// Publishes the run's scheduler metrics (`memsim.sched.*`) into the
    /// telemetry registry; call once, when the run ends.
    pub fn publish(&self) {
        xed_telemetry::count(&metrics::MEMSIM_SCHED_READS_DONE, self.stats.reads_done);
        xed_telemetry::count(&metrics::MEMSIM_SCHED_WRITES_DONE, self.stats.writes_done);
        xed_telemetry::publish(&metrics::MEMSIM_SCHED_QUEUE_DEPTH, &self.queue_depth);
        xed_telemetry::publish(&metrics::MEMSIM_SCHED_READ_LATENCY, &self.read_latency);
    }

    fn tick_channel(&mut self, ch: u32, now: u64) {
        let step = self.step_channel(ch, now);
        // indexing: one ChannelState per topology channel.
        let c = &mut self.channels[ch as usize];
        c.wake = match step {
            Step::Column(rank) | Step::Row(rank) => {
                // A command moved the bank's registers, its rank's and
                // the channel's bus: refresh the table, rescan next cycle.
                let banks = self.dram.channel(ch).rank(rank).banks();
                let at = (rank as usize) * banks.len();
                // indexing: the table holds ranks × banks entries.
                c.banks[at..at + banks.len()].copy_from_slice(banks);
                for (r, floor) in c.floors.iter_mut().enumerate() {
                    *floor = self.dram.rank_ready(ch, r as u32);
                }
                now + 1
            }
            Step::Idle(at) => at.min(self.dram.next_refresh_event(ch, now)),
        };
    }

    fn step_channel(&mut self, ch: u32, now: u64) -> Step {
        // 1. Refresh has absolute priority: when a rank is due, quiesce it.
        for rank in 0..self.topology.ranks {
            if self.dram.refresh_due(ch, rank, now) && !self.dram.refreshing(ch, rank, now) {
                if !self.dram.channel(ch).rank(rank).any_bank_open() {
                    self.dram.issue_refresh(ch, rank, now);
                    return Step::Row(rank);
                }
                // Close one open bank per cycle until quiesced.
                let mut wake = NEVER;
                for bank in 0..self.topology.banks {
                    let at = self.dram.pre_ready_at(ch, rank, bank);
                    if at <= now {
                        self.dram.issue_precharge(ch, rank, bank, now);
                        return Step::Row(rank);
                    }
                    wake = wake.min(at);
                }
                // Banks open but not yet precharge-able: wait.
                return Step::Idle(wake);
            }
        }

        // 2. Choose read service or write drain. Drain episodes have a
        // fixed budget set when they start, and each completed episode
        // grants the read queue a grace window before the next may begin —
        // so a steady write stream can never starve reads.
        let (hi, lo) = (self.config.write_drain_hi, self.config.write_drain_lo);
        // indexing: one ChannelState per topology channel.
        let c = &mut self.channels[ch as usize];
        let wq_len = c.write_q.len();
        let rq_empty = c.read_q.is_empty();
        if c.drain_remaining == 0 && wq_len >= hi && (c.read_grace == 0 || rq_empty) {
            c.drain_remaining = (wq_len - lo) as u32;
        }

        if c.write_mode() {
            let step = self.schedule_queue(ch, now, true);
            // indexing: one ChannelState per topology channel.
            let c = &mut self.channels[ch as usize];
            if matches!(step, Step::Column(_)) && c.drain_remaining > 0 {
                c.drain_remaining -= 1;
                if c.drain_remaining == 0 {
                    // Episode over: guarantee the reads a matching window.
                    c.read_grace = (hi - lo) as u32;
                }
            }
            step
        } else if !rq_empty {
            let step = self.schedule_queue(ch, now, false);
            if matches!(step, Step::Column(_)) {
                // indexing: one ChannelState per topology channel.
                let c = &mut self.channels[ch as usize];
                c.read_grace = c.read_grace.saturating_sub(1);
            }
            step
        } else {
            c.read_grace = 0;
            Step::Idle(NEVER)
        }
    }

    /// FR-FCFS over one queue in a single pass: the oldest row-hit
    /// column access first, else the oldest activate of a closed bank,
    /// else the oldest precharge of a conflicting row.
    fn schedule_queue(&mut self, ch: u32, now: u64, writes: bool) -> Step {
        let banks = self.topology.banks;
        // indexing: one ChannelState per topology channel.
        let c = &mut self.channels[ch as usize];
        let queue = if writes { &c.write_q } else { &c.read_q };
        let mut hit = None;
        let mut act = None;
        let mut pre = None;
        let mut wake = NEVER;
        for (i, req) in queue.iter().enumerate() {
            let l = req.loc;
            // indexing: the table holds ranks × banks entries and the
            // request was decoded against the same topology.
            let bank = &c.banks[(l.rank * banks + l.bank) as usize];
            // indexing: as above, one floor per rank.
            let (cmd, at) = command_for(bank, &c.floors[l.rank as usize], l.row, writes);
            if at > now {
                wake = wake.min(at);
                continue;
            }
            match cmd {
                Cmd::Column => {
                    hit = Some(i);
                    break;
                }
                Cmd::Activate => {
                    act.get_or_insert(i);
                }
                Cmd::Precharge => {
                    pre.get_or_insert(i);
                }
            }
        }

        if let Some(i) = hit {
            let req = if writes {
                c.write_q.remove(i)
            } else {
                c.read_q.remove(i)
            };
            let l = req.loc;
            if writes {
                self.dram.issue_write(ch, l.rank, l.bank, l.row, now);
                self.stats.writes_done += 1;
            } else {
                let data_end = self.dram.issue_read(ch, l.rank, l.bank, l.row, now);
                self.stats.reads_done += 1;
                self.stats.total_read_latency += data_end - req.arrival;
                self.read_latency.record(data_end - req.arrival);
                // alloc: amortized, the heap's capacity is reused all run.
                self.completions.push(Reverse((data_end, req.id)));
            }
            return Step::Column(l.rank);
        }
        let Some((i, cmd)) = act
            .map(|i| (i, Cmd::Activate))
            .or(pre.map(|i| (i, Cmd::Precharge)))
        else {
            return Step::Idle(wake);
        };
        // indexing: `i` was produced by enumerating this queue above.
        let l = queue[i].loc;
        if cmd == Cmd::Activate {
            self.dram.issue_activate(ch, l.rank, l.bank, l.row, now);
        } else {
            self.dram.issue_precharge(ch, l.rank, l.bank, now);
        }
        Step::Row(l.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemController {
        MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig::default(),
        )
    }

    /// Ticks once at `now` and returns the completed read ids.
    fn tick(mc: &mut MemController, now: u64) -> Vec<u64> {
        let mut done = Vec::new();
        mc.tick(now, &mut done);
        done
    }

    fn run_until_complete(mc: &mut MemController, ids: &[u64], limit: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for now in 0..limit {
            for id in tick(mc, now) {
                done.push((now, id));
            }
            if done.len() == ids.len() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0));
        let done = run_until_complete(&mut mc, &[1], 1000);
        assert_eq!(done.len(), 1);
        let t = DdrTiming::ddr3_1600();
        // ACT at ~0, READ at tRCD, data at tRCD+CL+BL.
        let expected = t.t_rcd + t.t_cas + t.t_burst;
        assert!(
            (done[0].0 as i64 - expected as i64).abs() <= 2,
            "completed at {} expected ~{expected}",
            done[0].0
        );
        assert_eq!(mc.stats.reads_done, 1);
    }

    #[test]
    fn row_hit_faster_than_row_miss() {
        let mut mc = controller();
        // Two reads to the same row, consecutive columns (addresses 0 and
        // 4: channel-interleaved, so 0 and 4 share row/bank on channel 0).
        assert!(mc.enqueue_read(1, 0, 0));
        assert!(mc.enqueue_read(2, 4, 0));
        let done = run_until_complete(&mut mc, &[1, 2], 1000);
        assert_eq!(done.len(), 2);
        let gap = done[1].0 - done[0].0;
        // Second read is a row hit: only tCCD apart on the data bus.
        assert!(gap <= DdrTiming::ddr3_1600().t_ccd + 1, "gap {gap}");
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0)); // channel 0
        assert!(mc.enqueue_read(2, 1, 0)); // channel 1
        let done = run_until_complete(&mut mc, &[1, 2], 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[0].0, done[1].0,
            "independent channels complete together"
        );
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                read_queue_cap: 2,
                ..SchedConfig::default()
            },
        );
        assert!(mc.enqueue_read(1, 0, 0));
        assert!(mc.enqueue_read(2, 4, 0));
        assert!(
            !mc.enqueue_read(3, 8, 0),
            "third read to channel 0 must bounce"
        );
        assert!(mc.enqueue_read(4, 1, 0), "other channels unaffected");
    }

    #[test]
    fn writes_drain_when_read_queue_empty() {
        let mut mc = controller();
        assert!(mc.enqueue_write(1, 0, 0));
        for now in 0..500 {
            tick(&mut mc, now);
            if mc.stats.writes_done == 1 {
                return;
            }
        }
        panic!("write never drained");
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut mc = controller();
        // A few writes (below hi watermark) plus a read: read goes first.
        for i in 0..5 {
            assert!(mc.enqueue_write(100 + i, (8 * i) * 4, 0));
        }
        assert!(mc.enqueue_read(1, 4, 0));
        let mut read_done_at = None;
        for now in 0..2000 {
            for id in tick(&mut mc, now) {
                if id == 1 {
                    read_done_at = Some(now);
                }
            }
            if read_done_at.is_some() {
                break;
            }
        }
        let read_at = read_done_at.expect("read completes");
        assert!(
            mc.stats.writes_done <= 1,
            "writes mostly waited for the read"
        );
        assert!(read_at < 100);
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut mc = controller();
        let t_refi = DdrTiming::ddr3_1600().t_refi;
        for now in 0..(t_refi * 2) {
            tick(&mut mc, now);
        }
        let mut refreshes = 0;
        for ch in 0..4 {
            for r in 0..2 {
                refreshes += mc.dram().channel(ch).rank(r).stats.refreshes;
            }
        }
        assert!(
            refreshes >= 8,
            "each rank refreshes at least once, got {refreshes}"
        );
    }

    #[test]
    fn saturating_writes_cannot_starve_reads() {
        // Regression: open-loop write pressure must not hold the channel
        // in drain mode forever (bounded drain episodes + read grace).
        let mut mc = controller();
        let mut next_id = 1u64;
        assert!(mc.enqueue_read(0, 0, 0));
        let mut read_done = false;
        for now in 0..50_000 {
            // Keep the write queue topped up on channel 0.
            loop {
                if !mc.enqueue_write(next_id, (next_id % 512) * 4, now) {
                    break;
                }
                next_id += 1;
            }
            if tick(&mut mc, now).contains(&0) {
                read_done = true;
                break;
            }
        }
        assert!(read_done, "read starved behind saturating writes");
    }

    #[test]
    fn read_latency_accumulates() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0));
        run_until_complete(&mut mc, &[1], 1000);
        assert!(mc.stats.total_read_latency >= DdrTiming::ddr3_1600().read_latency());
    }
}
