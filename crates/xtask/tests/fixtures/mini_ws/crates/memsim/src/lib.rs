//! Fixture for the xed-analyze integration tests: the `memsim-tick` hot
//! group, written clean — its indexing and its push into the
//! caller-owned buffer carry the justifications the proof accepts.
//! This crate is never compiled; only its token stream matters.

pub struct MemController {
    wake: Vec<u64>,
}

impl MemController {
    /// Hot entry: one controller step, filling the caller's buffer.
    pub fn tick(&mut self, now: u64, done: &mut Vec<u64>) {
        done.clear();
        for ch in 0..self.wake.len() {
            // indexing: `ch` ranges over the channel table.
            if self.wake[ch] <= now {
                self.wake[ch] = next_wake(now);
                // alloc: `done` is the caller's buffer, reused every cycle.
                done.push(ch as u64);
            }
        }
    }
}

fn next_wake(now: u64) -> u64 {
    now + 1
}
