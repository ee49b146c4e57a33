//! The host-speed probe: a fixed piece of work, independent of FreeRide,
//! timed between the workload's repeats.
//!
//! On a shared host the same code runs at different speeds from one
//! minute to the next (see README.md, "Host noise"). The probe slows down
//! with the workload, so the workload's time divided by the probe's time,
//! both taken over the same repeats, is steadier than either. Multiplied
//! by [`REFERENCE_S`] it reads again in seconds: the workload's time on a
//! host where the probe takes `REFERENCE_S`. A change to FreeRide moves
//! the workload and not the probe.
//!
//! The probe does what the simulator does: it pops and pushes an event
//! queue, updates an ordered map, allocates small vectors, and formats
//! JSON records into a growing string, as the Chrome-trace export does.

use crate::clock::{now, secs_since};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::hint::black_box;

/// The probe's 5th-percentile time, in seconds, over a quiet minute on
/// the 2-vCPU Xeon virtual machine the benchmark was written on.
pub const REFERENCE_S: f64 = 0.011;

/// Events the probe pops from its queue.
const EVENTS: u64 = 60_000;
/// Events the probe keeps in flight.
const IN_FLIGHT: u64 = 1_024;
/// Distinct keys of the probe's map.
const KEYS: u64 = 4_096;
/// One JSON record is formatted every this many events.
const RECORD_EVERY: u64 = 2;

/// Runs the probe once; returns its host time in seconds.
pub fn probe_s() -> f64 {
    let t0 = now();
    black_box(work(black_box(EVENTS)));
    secs_since(t0)
}

/// The probe's work: a checksum of a small event simulation and its log.
pub fn work(events: u64) -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut queue = BinaryHeap::new();
    for id in 0..IN_FLIGHT {
        queue.push(Reverse((next(&mut rng) % 1_000, id)));
    }
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut log = String::new();
    let mut sum = 0_u64;
    for i in 0..events {
        let Some(Reverse((at, id))) = queue.pop() else {
            break;
        };
        let slot = map.entry(id % KEYS).or_insert(0);
        *slot = slot.wrapping_add(at);
        let fanout: Vec<u64> = (0..next(&mut rng) % 8).collect();
        sum = sum.wrapping_add(*slot).wrapping_add(fanout.len() as u64);
        if i % RECORD_EVERY == 0 {
            let _ = write!(
                log,
                "{{\"name\":\"ev\",\"ph\":\"X\",\"ts\":{at},\"dur\":{i},\"tid\":{}}},",
                id % 7
            );
        }
        queue.push(Reverse((at + next(&mut rng) % 1_000, (id + i) % KEYS)));
    }
    sum.wrapping_add(log.len() as u64)
}

/// xorshift64.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(work(EVENTS), work(EVENTS));
        assert_ne!(work(EVENTS), work(EVENTS / 2));
    }
}
