//! CLOCK frame eviction for the buffer pool.
//!
//! The policy sees two events: a frame referenced (a page admitted into
//! it, or a hit), and a request for a victim frame. Pinned frames are
//! never evicted; the pool tells the policy which frames are pinned.
//!
//! [`ClockPolicy`] is second-chance / CLOCK: one reference bit per frame
//! and a sweeping hand; a reference sets the bit, the hand clears bits
//! until it finds a clear, unpinned frame. `O(1)` state per frame and the
//! usual LRU approximation.

/// Which eviction policy a pool uses. CLOCK is the only one; the name
/// stays in configurations and recorded baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// CLOCK (second chance).
    #[default]
    Clock,
}

impl PolicyKind {
    /// The policy's conventional lowercase name (`clock`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Clock => "clock",
        }
    }
}

/// CLOCK / second-chance eviction.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    referenced: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    /// Frame `frame` was referenced: a page was admitted into it or hit.
    pub fn reference(&mut self, frame: usize) {
        self.ensure(frame);
        self.referenced[frame] = true;
    }

    /// Chooses an unpinned victim among `frames` frames (`pinned(i)`
    /// tells whether frame `i` is pinned), or `None` if every frame is
    /// pinned.
    pub fn victim(&mut self, frames: usize, pinned: impl Fn(usize) -> bool) -> Option<usize> {
        if frames == 0 {
            return None;
        }
        // Two full sweeps suffice: the first clears every reference bit on
        // unpinned frames, so the second must find one — unless all frames
        // are pinned.
        for _ in 0..2 * frames {
            let f = self.hand;
            self.hand = (self.hand + 1) % frames;
            if pinned(f) {
                continue;
            }
            self.ensure(f);
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                return Some(f);
            }
        }
        None
    }

    fn ensure(&mut self, frame: usize) {
        if frame >= self.referenced.len() {
            self.referenced.resize(frame + 1, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_names_clock() {
        assert_eq!(PolicyKind::default(), PolicyKind::Clock);
        assert_eq!(PolicyKind::Clock.name(), "clock");
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut clock = ClockPolicy::default();
        clock.reference(0);
        clock.reference(1);
        // Both referenced: first sweep clears 0 then 1, second evicts 0.
        assert_eq!(clock.victim(2, |_| false), Some(0));
        // Hand is now past 0; 1's bit is already clear, so 1 goes next.
        assert_eq!(clock.victim(2, |_| false), Some(1));
    }

    #[test]
    fn clock_skips_pinned_frames() {
        let mut clock = ClockPolicy::default();
        clock.reference(0);
        clock.reference(1);
        assert_eq!(clock.victim(2, |f| f == 0), Some(1));
        assert_eq!(clock.victim(2, |_| true), None);
        assert_eq!(clock.victim(0, |_| false), None);
    }
}
