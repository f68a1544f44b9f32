//! The due-calendar of the compiled kernel's traffic generators: which
//! generator has its next event at which cycle, so that a cycle's TG
//! phase visits the generators due at it instead of every generator.
//!
//! A generator with a next event `e` is *filed* under `e` as long as it
//! is neither parked nor exhausted. Seen from the current cycle `now`,
//! an event less than [`WHEEL`] cycles out sits on a wheel of
//! [`WHEEL`] buckets of generator bitsets, bucket `e % WHEEL` (every
//! filed event is `>= now`, so a bucket holds one cycle's generators);
//! a one-word summary marks the non-empty buckets, which makes the
//! earliest event a rotate and a trailing-zero count. Events further
//! out wait in the *far* set, a min-heap keyed by `(event, generator)`
//! whose top is their exact minimum, and move onto the wheel once the
//! clock comes within [`WHEEL`] cycles of them.
//!
//! Costs are per event: filing is a bit set or a heap push, the due
//! bucket is read and cleared word by word, and the earliest event is
//! O(1) — the engine's watermark and its gated clock's jump target.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel spans: one bucket per cycle, one summary bit per
/// bucket.
pub(crate) const WHEEL: u64 = 64;

/// Generators filed by the cycle of their next event (module docs).
#[derive(Debug, Clone)]
pub(crate) struct DueCalendar {
    /// Bitset words per bucket (`generators / 64`, rounded up).
    words: usize,
    /// Bucket-major generator bitsets: word `w` of bucket `b` is
    /// `wheel[b * words + w]`.
    wheel: Vec<u64>,
    /// Bit `b` set iff bucket `b` holds a generator.
    summary: u64,
    /// `(event, generator)` of every generator filed [`WHEEL`] or more
    /// cycles out, earliest on top.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DueCalendar {
    /// A calendar filing generator `i` under `events[i]` at cycle 0.
    pub(crate) fn new(events: &[u64]) -> Self {
        let words = events.len().div_ceil(64);
        let mut cal = DueCalendar {
            words,
            wheel: vec![0; words * WHEEL as usize],
            summary: 0,
            far: BinaryHeap::new(),
        };
        for (i, &e) in events.iter().enumerate() {
            cal.file(i, e, 0);
        }
        cal
    }

    /// Bitset words per bucket.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Files generator `i` under its next event `e`, seen from cycle
    /// `now <= e`. `u64::MAX` (no event ever) files nothing.
    #[inline]
    pub(crate) fn file(&mut self, i: usize, e: u64, now: u64) {
        debug_assert!(e >= now, "event {e} of generator {i} lies before {now}");
        if e == u64::MAX {
            return;
        }
        if e - now < WHEEL {
            let b = (e % WHEEL) as usize;
            self.wheel[b * self.words + (i >> 6)] |= 1 << (i & 63);
            self.summary |= 1 << b;
        } else {
            self.far.push(Reverse((e, i as u32)));
        }
    }

    /// Moves every far generator whose event is now less than [`WHEEL`]
    /// cycles out onto the wheel. Call before reading `now`'s bucket.
    #[inline]
    pub(crate) fn advance(&mut self, now: u64) {
        while let Some(&Reverse((e, i))) = self.far.peek() {
            if e - now >= WHEEL {
                break;
            }
            self.far.pop();
            self.file(i as usize, e, now);
        }
    }

    /// Empties word `w` of cycle `now`'s bucket and returns it: the
    /// generators among `64 w .. 64 w + 63` whose event is `now`.
    #[inline]
    pub(crate) fn take_due(&mut self, now: u64, w: usize) -> u64 {
        let b = (now % WHEEL) as usize;
        self.summary &= !(1 << b);
        std::mem::take(&mut self.wheel[b * self.words + w])
    }

    /// The earliest filed event (`u64::MAX` = none), given that every
    /// filed event lies at `from` or later — true from the cycle after
    /// the last `take_due` on, and from cycle 0 before the first.
    #[inline]
    pub(crate) fn earliest(&self, from: u64) -> u64 {
        let ahead = self.summary.rotate_right((from % WHEEL) as u32);
        let near = if ahead == 0 {
            u64::MAX
        } else {
            from + u64::from(ahead.trailing_zeros())
        };
        near.min(self.far.peek().map_or(u64::MAX, |r| r.0 .0))
    }

    /// Checks, after [`Self::advance`] at `now`, that the calendar files
    /// exactly the generators `event` names: generator `i < n` with
    /// `event(i) == Some(e)` once — in bucket `e % WHEEL` if `e < now +
    /// WHEEL`, in the far set otherwise — and a generator with `None`
    /// nowhere; that the summary marks exactly the non-empty buckets;
    /// and that the far set's top is its minimum.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_files(&self, now: u64, n: usize, event: impl Fn(usize) -> Option<u64>) {
        let mut seen = vec![0u32; n];
        for b in 0..WHEEL as usize {
            let bucket = &self.wheel[b * self.words..(b + 1) * self.words];
            let marked = self.summary & (1 << b) != 0;
            assert_eq!(marked, bucket.iter().any(|&w| w != 0), "summary bit {b}");
            for (w, &word) in bucket.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let i = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let e = event(i).unwrap_or_else(|| panic!("generator {i} is filed"));
                    assert!(
                        e >= now && e - now < WHEEL,
                        "generator {i} at {e} on the wheel"
                    );
                    assert_eq!(e % WHEEL, b as u64, "generator {i} at {e} in bucket {b}");
                    seen[i] += 1;
                }
            }
        }
        for &Reverse((e, i)) in &self.far {
            let i = i as usize;
            assert_eq!(event(i), Some(e), "far generator {i}");
            assert!(e >= now + WHEEL, "generator {i} at {e} is far at {now}");
            seen[i] += 1;
        }
        for (i, &times) in seen.iter().enumerate() {
            assert_eq!(times, u32::from(event(i).is_some()), "generator {i} filed");
        }
        let far_min = self.far.iter().map(|r| r.0 .0).min();
        assert_eq!(self.far.peek().map(|r| r.0 .0), far_min, "far minimum");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::rng::SplitMix64;

    /// The calendar against a brute-force scan of the event array over
    /// random horizons: gaps on both sides of the wheel's edge, far
    /// events, generators that stop, and clock jumps straight to the
    /// earliest event (what gating does). Every cycle the due bucket
    /// must be exactly the generators whose event is now, and the
    /// earliest event must be the array's minimum.
    fn replay(generators: usize, seed: u64, jumps: bool) {
        let mut rng = SplitMix64::new(seed);
        let gap = |rng: &mut SplitMix64| match rng.next() % 32 {
            0 => u64::MAX,
            1..=6 => 60 + rng.next() % 8,
            7..=12 => 64 + rng.next() % 400,
            _ => 1 + rng.next() % 70,
        };
        let mut event: Vec<u64> = (0..generators)
            .map(|_| match gap(&mut rng) {
                u64::MAX => u64::MAX,
                g => g - 1,
            })
            .collect();
        let mut cal = DueCalendar::new(&event);
        let mut now = 0;
        for _ in 0..3_000 {
            let min = event.iter().copied().min().unwrap_or(u64::MAX);
            assert_eq!(cal.earliest(now), min, "earliest at {now}");
            if min == u64::MAX {
                break;
            }
            if jumps {
                now = min;
            }
            cal.advance(now);
            cal.assert_files(now, generators, |i| {
                Some(event[i]).filter(|&e| e != u64::MAX)
            });
            let mut due = Vec::new();
            for w in 0..cal.words() {
                let mut m = cal.take_due(now, w);
                while m != 0 {
                    due.push(w * 64 + m.trailing_zeros() as usize);
                    m &= m - 1;
                }
            }
            let want: Vec<usize> = (0..generators).filter(|&i| event[i] == now).collect();
            assert_eq!(due, want, "due at {now}");
            for i in due {
                event[i] = now.saturating_add(gap(&mut rng));
                cal.file(i, event[i], now);
            }
            now += 1;
        }
    }

    #[test]
    fn due_buckets_and_earliest_match_a_brute_force_scan() {
        for (generators, seed) in [(1, 1), (5, 2), (64, 3), (65, 4), (200, 5)] {
            replay(generators, seed, false);
            replay(generators, seed, true);
        }
    }

    #[test]
    fn due_buckets_and_earliest_match_a_brute_force_scan_on_generated_streams() {
        // Up to four bitset words of generators, one partial.
        for seed in 0..16 {
            let generators = 1 + (SplitMix64::new(seed).next() % 256) as usize;
            replay(generators, 1_000 + seed, seed % 2 == 1);
        }
    }

    #[test]
    fn events_at_the_wheel_edge_land_on_the_right_side() {
        let mut cal = DueCalendar::new(&[63, 64, 65, u64::MAX]);
        assert_eq!(cal.earliest(0), 63);
        cal.assert_files(0, 4, |i| [Some(63), Some(64), Some(65), None][i]);
        cal.advance(1);
        cal.assert_files(1, 4, |i| [Some(63), Some(64), Some(65), None][i]);
        assert_eq!((cal.take_due(63, 0), cal.earliest(64)), (0b1, 64));
        cal.advance(64);
        assert_eq!(cal.take_due(64, 0), 0b10);
        cal.advance(65);
        assert_eq!((cal.earliest(65), cal.take_due(65, 0)), (65, 0b100));
        assert_eq!(cal.earliest(66), u64::MAX);
    }
}
