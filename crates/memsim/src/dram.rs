//! Bank/rank/channel state machines enforcing DDR3 timing.
//!
//! Each structure tracks "earliest allowed cycle" registers for the
//! commands that touch it. The `*_ready_at` queries fold a bank's own
//! registers with its rank's [`RankReady`] floor into the earliest cycle
//! a command may issue ([`NEVER`] when the bank state forbids it
//! outright), and are the one source of DDR timing: each `can_*` is just
//! `ready_at <= now`. Every `issue_*` updates the
//! registers per the JEDEC constraint graph (tRCD, tRP, tRAS, tRC, tCCD,
//! tRRD, tFAW, tWTR, tWR, tRTP, tRTRS, tREFI/tRFC).
//!
//! Without an intervening `issue_*` every readiness cycle is fixed, so a
//! scheduler can sleep until the earliest one (DESIGN.md §18).

use crate::timing::DdrTiming;

/// "Not before the bank state changes": the readiness of a command the
/// current bank state forbids (ACT to an open bank, PRE to a closed one,
/// a column access to another row).
pub const NEVER: u64 = u64::MAX;

/// One DRAM bank's scheduling state: its open row and the earliest
/// cycles its own timing allows each command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    next_act: u64,
    next_read: u64,
    next_write: u64,
    next_pre: u64,
}

impl Bank {
    fn new() -> Self {
        Self {
            open_row: None,
            next_act: 0,
            next_read: 0,
            next_write: 0,
            next_pre: 0,
        }
    }

    /// Earliest ACT, given the rank's [`RankReady`] floor ([`NEVER`]
    /// while a row is open).
    #[inline]
    pub fn act_ready_at(&self, rank: &RankReady) -> u64 {
        match self.open_row {
            Some(_) => NEVER,
            None => self.next_act.max(rank.act),
        }
    }

    /// Earliest PRE ([`NEVER`] while the bank is closed).
    #[inline]
    pub fn pre_ready_at(&self, rank: &RankReady) -> u64 {
        match self.open_row {
            Some(_) => self.next_pre.max(rank.pre),
            None => NEVER,
        }
    }

    /// Earliest READ of `row` ([`NEVER`] unless `row` is open).
    #[inline]
    pub fn read_ready_at(&self, rank: &RankReady, row: u32) -> u64 {
        if self.open_row == Some(row) {
            self.next_read.max(rank.read)
        } else {
            NEVER
        }
    }

    /// Earliest WRITE of `row` ([`NEVER`] unless `row` is open).
    #[inline]
    pub fn write_ready_at(&self, rank: &RankReady, row: u32) -> u64 {
        if self.open_row == Some(row) {
            self.next_write.max(rank.write)
        } else {
            NEVER
        }
    }
}

/// The rank- and bus-wide floor under every bank's command readiness:
/// refresh, tRRD and tFAW for ACT, CAS-to-CAS spacing, write-to-read
/// turnaround and data-bus availability for column commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankReady {
    act: u64,
    pre: u64,
    read: u64,
    write: u64,
}

/// Per-rank activity counters (drive the power model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// ACT commands issued.
    pub acts: u64,
    /// READ bursts issued.
    pub reads: u64,
    /// WRITE bursts issued.
    pub writes: u64,
    /// REFRESH commands issued.
    pub refreshes: u64,
    /// Cycles with at least one bank open (active-standby), counted at
    /// each close-to-open and open-to-close transition; cycles of a
    /// still-open stretch are added by [`Dram::settle_active`].
    pub active_cycles: u64,
}

/// One rank's scheduling state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Times of the last `faw_len` ACTs (tFAW window), a ring whose
    /// oldest entry sits at `faw_head` once it holds four.
    faw: [u64; 4],
    faw_head: usize,
    faw_len: usize,
    next_act_rrd: u64,
    next_read_cas: u64,
    next_write_cas: u64,
    refresh_until: u64,
    next_refresh_due: u64,
    /// Banks holding an open row, and the cycle the rank last went from
    /// none to some (active-standby accounting).
    open_banks: u32,
    open_since: u64,
    /// Activity counters.
    pub stats: RankStats,
}

impl Rank {
    fn new(banks: u32, refresh_offset: u64) -> Self {
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            faw: [0; 4],
            faw_head: 0,
            faw_len: 0,
            next_act_rrd: 0,
            next_read_cas: 0,
            next_write_cas: 0,
            refresh_until: 0,
            next_refresh_due: refresh_offset,
            open_banks: 0,
            open_since: 0,
            stats: RankStats::default(),
        }
    }

    /// The bank states (read-only).
    pub fn bank(&self, b: u32) -> &Bank {
        // indexing: callers pass bank ids of the topology.
        &self.banks[b as usize]
    }

    /// All bank states, in bank order.
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// `true` if any bank holds an open row.
    pub fn any_bank_open(&self) -> bool {
        self.open_banks > 0
    }

    fn open_bank(&mut self, now: u64) {
        if self.open_banks == 0 {
            self.open_since = now;
        }
        self.open_banks += 1;
    }

    fn close_bank(&mut self, now: u64) {
        self.open_banks -= 1;
        if self.open_banks == 0 {
            // Open after the commands of cycles open_since..now-1; the
            // PRE at `now` leaves the rank closed for cycle `now`.
            self.stats.active_cycles += now - self.open_since;
        }
    }
}

/// One channel: its ranks plus the shared data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    ranks: Vec<Rank>,
    data_bus_free: u64,
    last_data_rank: Option<u32>,
    /// Cycles the data bus carried data (bus-utilization stat).
    pub data_bus_busy_cycles: u64,
}

impl Channel {
    /// Rank accessor.
    pub fn rank(&self, r: u32) -> &Rank {
        // indexing: callers pass rank ids of the topology.
        &self.ranks[r as usize]
    }
}

/// The full DRAM system state.
#[derive(Debug, Clone)]
pub struct Dram {
    timing: DdrTiming,
    channels: Vec<Channel>,
}

impl Dram {
    /// Builds the state for `channels × ranks × banks`. Refresh timers are
    /// staggered across ranks to avoid synchronized refresh storms.
    pub fn new(timing: DdrTiming, channels: u32, ranks: u32, banks: u32) -> Self {
        let channels = (0..channels)
            .map(|c| Channel {
                ranks: (0..ranks)
                    .map(|r| {
                        let offset = timing.t_refi * (c as u64 * ranks as u64 + r as u64 + 1)
                            / (channels as u64 * ranks as u64);
                        Rank::new(banks, offset.max(1))
                    })
                    .collect(),
                data_bus_free: 0,
                last_data_rank: None,
                data_bus_busy_cycles: 0,
            })
            .collect();
        Self { timing, channels }
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &DdrTiming {
        &self.timing
    }

    /// Channel accessor.
    pub fn channel(&self, c: u32) -> &Channel {
        // indexing: callers pass channel ids of the topology this was
        // built for, as do the rank/bank accessors below.
        &self.channels[c as usize]
    }

    fn rank(&self, c: u32, r: u32) -> &Rank {
        // indexing: see `channel`.
        &self.channel(c).ranks[r as usize]
    }

    fn rank_mut(&mut self, c: u32, r: u32) -> &mut Rank {
        // indexing: see `channel`.
        &mut self.channels[c as usize].ranks[r as usize]
    }

    fn bank_of(&self, c: u32, r: u32, b: u32) -> &Bank {
        // indexing: see `channel`.
        &self.rank(c, r).banks[b as usize]
    }

    /// Adds the active-standby cycles of every rank still holding an
    /// open row through the end of cycle `now` (call once when a run
    /// ends; later transitions count from `now + 1`).
    pub fn settle_active(&mut self, now: u64) {
        for rank in self.channels.iter_mut().flat_map(|ch| ch.ranks.iter_mut()) {
            if rank.open_banks > 0 {
                rank.stats.active_cycles += now + 1 - rank.open_since;
                rank.open_since = now + 1;
            }
        }
    }

    // ---- refresh ----------------------------------------------------

    /// `true` if the rank is due (or overdue) for a refresh.
    pub fn refresh_due(&self, c: u32, r: u32, now: u64) -> bool {
        now >= self.rank(c, r).next_refresh_due
    }

    /// `true` if the rank is currently executing a refresh.
    pub fn refreshing(&self, c: u32, r: u32, now: u64) -> bool {
        now < self.rank(c, r).refresh_until
    }

    /// The earliest cycle after `now` at which some rank of the channel
    /// becomes due for refresh or finishes one ([`NEVER`] if none).
    pub fn next_refresh_event(&self, c: u32, now: u64) -> u64 {
        let mut at = NEVER;
        for rank in &self.channel(c).ranks {
            for t in [rank.next_refresh_due, rank.refresh_until] {
                if t > now {
                    at = at.min(t);
                }
            }
        }
        at
    }

    /// Issues a refresh: all banks are closed and the rank blocks for
    /// tRFC. The scheduler calls this only once all banks are precharged
    /// (it stops issuing new activates to a refresh-due rank).
    pub fn issue_refresh(&mut self, c: u32, r: u32, now: u64) {
        let t_rfc = self.timing.t_rfc;
        let t_refi = self.timing.t_refi;
        let t_rc = self.timing.t_rc;
        let rank = self.rank_mut(c, r);
        debug_assert!(!rank.any_bank_open(), "refresh with open banks");
        rank.refresh_until = now + t_rfc;
        rank.next_refresh_due += t_refi;
        for bank in &mut rank.banks {
            bank.next_act = bank.next_act.max(now + t_rfc);
        }
        // tFAW bookkeeping: a refresh internally activates rows, but JEDEC
        // only requires tRFC before the next ACT; clear the window.
        rank.faw_len = 0;
        rank.next_act_rrd = rank.next_act_rrd.max(now + t_rfc.min(t_rc));
        rank.stats.refreshes += 1;
    }

    // ---- activate ---------------------------------------------------

    /// The rank's readiness floor (see [`RankReady`]); with the bank's
    /// own registers it gives every command's readiness.
    pub fn rank_ready(&self, c: u32, r: u32) -> RankReady {
        let t = &self.timing;
        let rank = self.rank(c, r);
        let mut act = rank.refresh_until.max(rank.next_act_rrd);
        if rank.faw_len == 4 {
            // indexing: faw_head is kept below 4.
            act = act.max(rank.faw[rank.faw_head] + t.t_faw);
        }
        // A burst may start once the bus is free, plus tRTRS when it
        // switches ranks.
        let ch = self.channel(c);
        let mut bus = ch.data_bus_free;
        if ch.last_data_rank.is_some() && ch.last_data_rank != Some(r) {
            bus += t.t_rtrs;
        }
        RankReady {
            act,
            pre: rank.refresh_until,
            read: rank
                .refresh_until
                .max(rank.next_read_cas)
                .max(bus.saturating_sub(t.t_cas)),
            write: rank
                .refresh_until
                .max(rank.next_write_cas)
                .max(bus.saturating_sub(t.t_cwd)),
        }
    }

    /// Earliest cycle ACT may issue to the bank ([`NEVER`] while a row is
    /// open).
    pub fn act_ready_at(&self, c: u32, r: u32, b: u32) -> u64 {
        self.bank_of(c, r, b).act_ready_at(&self.rank_ready(c, r))
    }

    /// `true` if ACT(row) may issue to the bank at `now`.
    pub fn can_activate(&self, c: u32, r: u32, b: u32, now: u64) -> bool {
        self.act_ready_at(c, r, b) <= now
    }

    /// Issues ACT(row).
    pub fn issue_activate(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) {
        debug_assert!(self.can_activate(c, r, b, now));
        let t = self.timing;
        let rank = self.rank_mut(c, r);
        // indexing: see `channel`.
        let bank = &mut rank.banks[b as usize];
        bank.open_row = Some(row);
        bank.next_read = now + t.t_rcd;
        bank.next_write = now + t.t_rcd;
        bank.next_pre = now + t.t_ras;
        bank.next_act = now + t.t_rc;
        rank.next_act_rrd = now + t.t_rrd;
        // indexing: faw_head is kept below 4.
        rank.faw[(rank.faw_head + rank.faw_len) % 4] = now;
        if rank.faw_len == 4 {
            rank.faw_head = (rank.faw_head + 1) % 4;
        } else {
            rank.faw_len += 1;
        }
        rank.open_bank(now);
        rank.stats.acts += 1;
    }

    // ---- precharge --------------------------------------------------

    /// Earliest cycle PRE may issue to the bank ([`NEVER`] while it is
    /// closed).
    pub fn pre_ready_at(&self, c: u32, r: u32, b: u32) -> u64 {
        self.bank_of(c, r, b).pre_ready_at(&self.rank_ready(c, r))
    }

    /// `true` if PRE may issue to the bank at `now`.
    pub fn can_precharge(&self, c: u32, r: u32, b: u32, now: u64) -> bool {
        self.pre_ready_at(c, r, b) <= now
    }

    /// Issues PRE.
    pub fn issue_precharge(&mut self, c: u32, r: u32, b: u32, now: u64) {
        debug_assert!(self.can_precharge(c, r, b, now));
        let t_rp = self.timing.t_rp;
        let rank = self.rank_mut(c, r);
        // indexing: see `channel`.
        let bank = &mut rank.banks[b as usize];
        bank.open_row = None;
        bank.next_act = bank.next_act.max(now + t_rp);
        rank.close_bank(now);
    }

    // ---- column access ----------------------------------------------

    /// Earliest cycle READ may issue to `(rank, bank)` for `row`
    /// ([`NEVER`] unless `row` is the open row).
    pub fn read_ready_at(&self, c: u32, r: u32, b: u32, row: u32) -> u64 {
        self.bank_of(c, r, b)
            .read_ready_at(&self.rank_ready(c, r), row)
    }

    /// `true` if READ may issue to `(rank, bank)` for `row` at `now`.
    pub fn can_read(&self, c: u32, r: u32, b: u32, row: u32, now: u64) -> bool {
        self.read_ready_at(c, r, b, row) <= now
    }

    /// Issues READ; returns the cycle the last data beat arrives.
    pub fn issue_read(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) -> u64 {
        debug_assert!(self.can_read(c, r, b, row, now));
        let t = self.timing;
        let data_start = now + t.t_cas;
        let data_end = data_start + t.t_burst;
        {
            // indexing: see `channel`.
            let ch = &mut self.channels[c as usize];
            ch.data_bus_free = data_end;
            ch.last_data_rank = Some(r);
            ch.data_bus_busy_cycles += t.t_burst;
        }
        let rank = self.rank_mut(c, r);
        rank.next_read_cas = rank.next_read_cas.max(now + t.t_ccd);
        rank.next_write_cas = rank.next_write_cas.max(data_end + t.t_rtrs);
        // indexing: see `channel`.
        let bank = &mut rank.banks[b as usize];
        bank.next_pre = bank.next_pre.max(now + t.t_rtp);
        rank.stats.reads += 1;
        data_end
    }

    /// Earliest cycle WRITE may issue to `(rank, bank)` for `row`
    /// ([`NEVER`] unless `row` is the open row).
    pub fn write_ready_at(&self, c: u32, r: u32, b: u32, row: u32) -> u64 {
        self.bank_of(c, r, b)
            .write_ready_at(&self.rank_ready(c, r), row)
    }

    /// `true` if WRITE may issue to `(rank, bank)` for `row` at `now`.
    pub fn can_write(&self, c: u32, r: u32, b: u32, row: u32, now: u64) -> bool {
        self.write_ready_at(c, r, b, row) <= now
    }

    /// Issues WRITE; returns the cycle the last data beat is written.
    pub fn issue_write(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) -> u64 {
        debug_assert!(self.can_write(c, r, b, row, now));
        let t = self.timing;
        let data_start = now + t.t_cwd;
        let data_end = data_start + t.t_burst;
        {
            // indexing: see `channel`.
            let ch = &mut self.channels[c as usize];
            ch.data_bus_free = data_end;
            ch.last_data_rank = Some(r);
            ch.data_bus_busy_cycles += t.t_burst;
        }
        let rank = self.rank_mut(c, r);
        rank.next_write_cas = rank.next_write_cas.max(now + t.t_ccd);
        // Write-to-read turnaround (tWTR) applies from end of write data.
        rank.next_read_cas = rank.next_read_cas.max(data_end + t.t_wtr);
        // indexing: see `channel`.
        let bank = &mut rank.banks[b as usize];
        // Write recovery before precharge.
        bank.next_pre = bank.next_pre.max(data_end + t.t_wr);
        rank.stats.writes += 1;
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DdrTiming::ddr3_1600(), 1, 2, 8)
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let mut d = dram();
        assert!(d.can_activate(0, 0, 0, 0));
        d.issue_activate(0, 0, 0, 42, 0);
        let t_rcd = d.timing().t_rcd;
        assert!(!d.can_read(0, 0, 0, 42, t_rcd - 1));
        assert!(d.can_read(0, 0, 0, 42, t_rcd));
        // Wrong row never readable.
        assert!(!d.can_read(0, 0, 0, 43, t_rcd));
    }

    #[test]
    fn cannot_activate_open_bank() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 1, 0);
        assert!(!d.can_activate(0, 0, 0, 100));
    }

    #[test]
    fn precharge_waits_for_tras() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 1, 0);
        let t_ras = d.timing().t_ras;
        assert!(!d.can_precharge(0, 0, 0, t_ras - 1));
        assert!(d.can_precharge(0, 0, 0, t_ras));
        d.issue_precharge(0, 0, 0, t_ras);
        // tRP before next ACT; also tRC from the original ACT.
        let earliest = (t_ras + d.timing().t_rp).max(d.timing().t_rc);
        assert!(!d.can_activate(0, 0, 0, earliest - 1));
        assert!(d.can_activate(0, 0, 0, earliest));
    }

    #[test]
    fn tfaw_limits_bursts_of_activates() {
        let mut d = dram();
        let t_rrd = d.timing().t_rrd;
        let mut now = 0;
        for b in 0..4 {
            assert!(d.can_activate(0, 0, b, now), "bank {b} at {now}");
            d.issue_activate(0, 0, b, 0, now);
            now += t_rrd;
        }
        // Fifth ACT must wait for the tFAW window.
        assert!(!d.can_activate(0, 0, 4, now));
        let window_open = d.timing().t_faw; // first ACT at 0
        assert!(d.can_activate(0, 0, 4, window_open));
    }

    #[test]
    fn reads_share_data_bus_tccd_apart() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 0, 1, 6, d.timing().t_rrd);
        // Wait until both banks have cleared tRCD so only tCCD binds.
        let t0 = d.timing().t_rrd + d.timing().t_rcd;
        d.issue_read(0, 0, 0, 5, t0);
        assert!(!d.can_read(0, 0, 1, 6, t0 + 1), "tCCD spacing");
        assert!(d.can_read(0, 0, 1, 6, t0 + d.timing().t_ccd));
    }

    #[test]
    fn rank_switch_costs_trtrs() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 1, 0, 5, 1);
        let t0 = d.timing().t_rcd + 1;
        d.issue_read(0, 0, 0, 5, t0);
        // Same-cycle-spacing read on the other rank must wait an extra
        // tRTRS for the bus turnaround.
        let t_ccd = d.timing().t_ccd;
        assert!(!d.can_read(0, 1, 0, 5, t0 + t_ccd));
        assert!(d.can_read(0, 1, 0, 5, t0 + t_ccd + d.timing().t_rtrs));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        let t0 = d.timing().t_rcd;
        let data_end = d.issue_write(0, 0, 0, 5, t0);
        let t_wtr = d.timing().t_wtr;
        assert!(!d.can_read(0, 0, 0, 5, data_end + t_wtr - 1));
        assert!(d.can_read(0, 0, 0, 5, data_end + t_wtr));
    }

    #[test]
    fn write_recovery_before_precharge() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        let t0 = d.timing().t_rcd;
        let data_end = d.issue_write(0, 0, 0, 5, t0);
        let t_wr = d.timing().t_wr;
        assert!(!d.can_precharge(0, 0, 0, data_end + t_wr - 1));
        assert!(d.can_precharge(0, 0, 0, data_end + t_wr));
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut d = dram();
        let due = d.channel(0).rank(0).next_refresh_due;
        assert!(d.refresh_due(0, 0, due));
        d.issue_refresh(0, 0, due);
        assert!(d.refreshing(0, 0, due + 1));
        assert!(!d.can_activate(0, 0, 0, due + 1));
        let t_rfc = d.timing().t_rfc;
        assert!(!d.refreshing(0, 0, due + t_rfc));
        assert!(d.can_activate(0, 0, 0, due + t_rfc));
        // Next due advanced by tREFI.
        assert!(!d.refresh_due(0, 0, due + t_rfc));
    }

    #[test]
    fn stats_count_operations() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_read(0, 0, 0, 5, d.timing().t_rcd);
        let s = d.channel(0).rank(0).stats;
        assert_eq!(s.acts, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn active_cycles_follow_open_close_transitions() {
        let mut d = dram();
        let t = *d.timing();
        let active = |d: &Dram, r: u32| d.channel(0).rank(r).stats.active_cycles;
        // Two overlapping open stretches count once: the rank is active
        // from the first ACT until the last PRE.
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 0, 1, 6, t.t_rrd);
        d.issue_precharge(0, 0, 0, t.t_ras);
        assert_eq!(active(&d, 0), 0, "one bank still open");
        let close = t.t_rrd + t.t_ras;
        d.issue_precharge(0, 0, 1, close);
        assert_eq!(active(&d, 0), close, "cycles 0..close-1");
        // A refresh runs with every bank closed and adds nothing.
        let due = d.channel(0).rank(0).next_refresh_due;
        assert!(due > close);
        d.issue_refresh(0, 0, due);
        assert_eq!(active(&d, 0), close);
        // Reopened after tRFC and still open when the run ends: the
        // settle adds the open stretch through the final cycle inclusive.
        let reopen = due + t.t_rfc;
        d.issue_activate(0, 0, 2, 1, reopen);
        let end = reopen + 9;
        d.settle_active(end);
        assert_eq!(active(&d, 0), close + 10);
        // A second settle at the same cycle adds nothing; the idle rank
        // never accrues.
        d.settle_active(end);
        assert_eq!(active(&d, 0), close + 10);
        assert_eq!(active(&d, 1), 0);
        // Closing after a settle counts only the cycles since it.
        d.issue_precharge(0, 0, 2, end + 20);
        assert_eq!(active(&d, 0), close + 10 + 19);
    }

    #[test]
    fn ready_at_is_the_first_cycle_can_passes() {
        // Scripted commands, then every query checked against a scan of
        // the `can_*` predicate over the following cycles.
        let mut d = dram();
        let t = *d.timing();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 1, 0, 5, 1);
        d.issue_write(0, 0, 0, 5, t.t_rcd);
        let now = t.t_rcd + 1;
        let first = |pred: &dyn Fn(u64) -> bool| (now..now + 400).find(|&c| pred(c));
        let expect = |at: u64| (at != NEVER).then_some(at.max(now));
        for (r, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(
                first(&|c| d.can_activate(0, r, b, c)),
                expect(d.act_ready_at(0, r, b))
            );
            assert_eq!(
                first(&|c| d.can_precharge(0, r, b, c)),
                expect(d.pre_ready_at(0, r, b))
            );
            for row in [5, 6] {
                assert_eq!(
                    first(&|c| d.can_read(0, r, b, row, c)),
                    expect(d.read_ready_at(0, r, b, row))
                );
                assert_eq!(
                    first(&|c| d.can_write(0, r, b, row, c)),
                    expect(d.write_ready_at(0, r, b, row))
                );
            }
        }
        assert_eq!(d.act_ready_at(0, 0, 0), NEVER);
        assert_eq!(d.pre_ready_at(0, 0, 1), NEVER);
        assert_eq!(d.read_ready_at(0, 0, 0, 6), NEVER);
    }
}
