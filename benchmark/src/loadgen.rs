//! Open-loop load generation with due-time accounting.
//!
//! The schedule fixes when every request is due, independent of how
//! fast the server answers: independent users do not wait for each
//! other. Each due time falls at a seeded random point of its own
//! `1 / rate` interval, so the offered rate is exact while arrivals take
//! every phase against a server that polls on a fixed period; evenly
//! spaced arrivals would beat against the period and hit the same few
//! phases, which one run to the next can shift. Sender thread `k` of
//! `n` takes slots `k, k + n, …` and sends each at its due time, or as
//! soon as it is free when it is already late. Latency is measured from
//! the due time, so a stall is charged to every request it delayed, and
//! the lateness itself is reported as the generator's lag. A step whose
//! lag passes `abort_lag` has already missed any latency limit; its
//! remaining slots are skipped so a saturated server cannot stretch the
//! run.

use crate::splitmix64;
use crate::stats::StepResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One rate step of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Requests per second.
    pub rate: f64,
    /// How long the step lasts.
    pub duration: Duration,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Position in the schedule.
    pub index: usize,
    /// Ladder step it belongs to.
    pub step: usize,
    /// Due time, relative to the start of the run.
    pub due: Duration,
}

/// Slots for `steps` run back to back: slot `i` of a step is due at a
/// point of `[i / rate, (i + 1) / rate)` drawn from `seed`.
pub fn schedule(steps: &[Step], seed: u64) -> Vec<Slot> {
    let mut slots = Vec::new();
    let mut offset = Duration::ZERO;
    for (s, step) in steps.iter().enumerate() {
        let count = (step.rate * step.duration.as_secs_f64()).floor() as usize;
        for i in 0..count {
            let index = slots.len();
            let u = unit_interval(seed, index as u64);
            slots.push(Slot {
                index,
                step: s,
                due: offset + Duration::from_secs_f64((i as f64 + u) / step.rate),
            });
        }
        offset += step.duration;
    }
    slots
}

/// Mixed into the schedule's hashes so due times are independent of the
/// request draws, which hash the same seed.
const SCHEDULE_SALT: u64 = 0x5C4E_D01E;

/// A number in `[0, 1)` that depends only on `seed` and `index`.
fn unit_interval(seed: u64, index: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(index ^ SCHEDULE_SALT)) >> 11) as f64 / (1u64 << 53) as f64
}

/// What happened to one slot.
#[derive(Debug)]
pub struct Record<T> {
    /// The slot.
    pub slot: Slot,
    /// Absolute due time.
    pub due: Instant,
    /// When it was sent and what came back; `None` when skipped.
    pub sent: Option<(Instant, Instant, Result<T, String>)>,
}

impl<T> Record<T> {
    /// Milliseconds from due time to completion (answered slots only).
    pub fn latency_ms(&self) -> Option<f64> {
        self.sent
            .as_ref()
            .map(|(_, done, _)| done.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator sent this slot after its due time.
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent
            .as_ref()
            .map(|(sent, _, _)| sent.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Run `slots` on `threads` sender threads; `send(slot)` performs one
/// request and returns its outcome. Records come back in slot order.
pub fn run_open_loop<T, F>(
    slots: &[Slot],
    threads: usize,
    abort_lag: Duration,
    send: F,
) -> Vec<Record<T>>
where
    T: Send,
    F: Fn(&Slot) -> Result<T, String> + Sync,
{
    let threads = threads.max(1);
    let steps = slots.iter().map(|s| s.step + 1).max().unwrap_or(0);
    let aborted: Vec<AtomicBool> = (0..steps).map(|_| AtomicBool::new(false)).collect();
    let start = Instant::now();
    let mut records: Vec<Record<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let (send, aborted) = (&send, &aborted);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for slot in slots.iter().skip(k).step_by(threads) {
                        let due = start + slot.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now - due > abort_lag {
                            aborted[slot.step].store(true, Ordering::Relaxed);
                        }
                        if aborted[slot.step].load(Ordering::Relaxed) {
                            out.push(Record {
                                slot: *slot,
                                due,
                                sent: None,
                            });
                            continue;
                        }
                        let sent = Instant::now();
                        let outcome = send(slot);
                        out.push(Record {
                            slot: *slot,
                            due,
                            sent: Some((sent, Instant::now(), outcome)),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.slot.index);
    records
}

/// Fold records into one [`StepResult`] per ladder step; `ok` decides
/// whether an answered request counts as a success.
pub fn step_results<T>(
    steps: &[Step],
    records: &[Record<T>],
    ok: impl Fn(&T) -> bool,
) -> Vec<StepResult> {
    let mut out: Vec<StepResult> = steps
        .iter()
        .map(|s| StepResult {
            rate: s.rate,
            scheduled: 0,
            ok: 0,
            errors: 0,
            skipped: 0,
            latencies_ms: Vec::new(),
        })
        .collect();
    for r in records {
        let step = &mut out[r.slot.step];
        step.scheduled += 1;
        match &r.sent {
            None => step.skipped += 1,
            Some((_, _, Ok(v))) if ok(v) => {
                step.ok += 1;
                step.latencies_ms.extend(r.latency_ms());
            }
            Some(_) => step.errors += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn schedule_puts_one_slot_in_each_interval_of_each_step() {
        let steps = [
            Step {
                rate: 10.0,
                duration: Duration::from_millis(500),
            },
            Step {
                rate: 20.0,
                duration: Duration::from_millis(100),
            },
        ];
        let slots = schedule(&steps, 7);
        assert_eq!(slots.len(), 5 + 2);
        let within = |slot: &Slot, from_ms: u64, to_ms: u64| {
            slot.due >= Duration::from_millis(from_ms) && slot.due < Duration::from_millis(to_ms)
        };
        for (i, slot) in slots[..5].iter().enumerate() {
            assert_eq!((slot.index, slot.step), (i, 0));
            assert!(
                within(slot, 100 * i as u64, 100 * (i as u64 + 1)),
                "{slot:?}"
            );
        }
        assert_eq!(slots[5].step, 1);
        assert!(within(&slots[5], 500, 550), "{:?}", slots[5]);
        assert!(within(&slots[6], 550, 600), "{:?}", slots[6]);
        // The same seed gives the same schedule; another seed moves it.
        assert_eq!(schedule(&steps, 7), slots);
        assert_ne!(schedule(&steps, 8), slots);
    }

    /// A stub server that answers every request at once except the
    /// `stall_at`-th, which it holds for `stall`.
    fn stub_server(
        requests: usize,
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..requests {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up mid-request");
                    buf.extend_from_slice(&chunk[..n]);
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_later_requests_and_reported_as_lag() {
        // Slots are due one per 10 ms interval, anywhere inside it, so
        // the bounds below hold for every seed: slot 4 is due at most
        // 20 ms after slot 3, which the stall holds for 60 ms.
        let stall = Duration::from_millis(60);
        let steps = [Step {
            rate: 100.0,
            duration: Duration::from_millis(200),
        }];
        let slots = schedule(&steps, 3);
        let (addr, server) = stub_server(slots.len(), 3, stall);
        let request = http::encode("GET", "/healthz", &[], &[], false);
        let records = run_open_loop(&slots, 1, Duration::from_secs(5), |_| {
            http::fresh(addr, &request, Duration::from_secs(5))
                .map(|(r, _)| r.status)
                .map_err(|e| e.to_string())
        });
        server.join().unwrap();

        assert_eq!(records.len(), 20);
        let lat: Vec<f64> = records.iter().map(|r| r.latency_ms().unwrap()).collect();
        let lag: Vec<f64> = records.iter().map(|r| r.lag_ms().unwrap()).collect();
        // The stalled request itself.
        assert!(lat[3] >= 60.0, "stalled request latency {}", lat[3]);
        // The next slots were due while the only sender was blocked:
        // sent late, and their latency from due carries the stall.
        assert!(lag[4] >= 35.0, "lag after the stall {}", lag[4]);
        assert!(lat[4] >= 35.0, "latency after the stall {}", lat[4]);
        assert!(
            lat[5] >= 25.0,
            "latency two slots after the stall {}",
            lat[5]
        );
        // Before the stall nothing was late.
        assert!(lag[..3].iter().all(|&l| l < 10.0), "{lag:?}");
        let steps = step_results(&steps, &records, |s| *s == 200);
        assert_eq!(steps[0].ok, 20);
        assert!(crate::stats::percentile(&steps[0].latencies_ms, 100.0) >= 60.0);
    }

    #[test]
    fn a_step_that_falls_behind_skips_its_remaining_slots() {
        // Every answer takes 30 ms but slots are due every 5 ms: the lag
        // passes 20 ms within a few slots and the rest are skipped.
        let steps = [Step {
            rate: 200.0,
            duration: Duration::from_millis(200),
        }];
        let slots = schedule(&steps, 3);
        let records = run_open_loop(&slots, 1, Duration::from_millis(20), |_| {
            std::thread::sleep(Duration::from_millis(30));
            Ok::<_, String>(200u16)
        });
        let result = &step_results(&steps, &records, |s| *s == 200)[0];
        assert!(result.ok >= 1 && result.ok < 10, "{result:?}");
        assert_eq!(result.ok + result.skipped, slots.len());
        assert!(!result.meets(100.0, 0.001));
    }
}
