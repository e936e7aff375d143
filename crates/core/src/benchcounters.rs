//! Host-time fault/reclaim/scan path counters for `repro bench` and the
//! standalone perfbench harness (`perfbench/src/native.rs`).
//!
//! The benchmarks track per-policy fault-path ns/op, reclaim-batch ns/op
//! and aging/eviction scan ns/PTE. Those are *host* wall-clock
//! measurements — exactly what the determinism rules ban from the
//! simulation proper — so they live here in a side channel:
//!
//! * [`Timer::start`] returns an RAII timer for one [`Counter`]. On drop
//!   it adds its elapsed nanoseconds and its units (one op, or the PTEs a
//!   scan examined) to that counter's thread-local cells, read out with
//!   [`take`].
//! * Without `--features bench-counters` (all figure runs), [`ENABLED`]
//!   is false, a timer never reads the clock, and the optimizer removes
//!   it. The counters never feed back into `RunMetrics` or any simulated
//!   decision, so figure output is byte-identical either way — CI
//!   enforces this with a golden diff of `figures_default.txt` built both
//!   ways.
//!
//! Counters are thread-local on purpose: the sweep executor runs one trial
//! per worker thread, so a worker's `reset`/run/`take` window observes only
//! its own trial with no synchronization on the hot path.

use std::cell::Cell;
// lint: allow(wall-clock) host-time benchmark counters, never read in figure builds and never fed back into the simulation
use std::time::Instant;

/// Accumulated hot-path counters for one measurement window (one trial on
/// one thread). All zeros when `bench-counters` is compiled out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total host nanoseconds spent inside the page-fault path.
    pub fault_ns: u64,
    /// Number of timed fault-path entries.
    pub fault_ops: u64,
    /// Total host nanoseconds spent inside reclaim batches (kswapd slices
    /// and direct reclaim rounds: policy scan + eviction application).
    pub reclaim_ns: u64,
    /// Number of timed reclaim batches.
    pub reclaim_ops: u64,
    /// Total host nanoseconds inside the aging walk's region scans
    /// ([`MemView::scan_region`](pagesim_policy::MemView::scan_region)).
    pub aging_scan_ns: u64,
    /// PTEs examined by the timed aging-walk region scans.
    pub aging_scan_ptes: u64,
    /// Total host nanoseconds inside the eviction scan's spatial
    /// line-mask probes.
    pub evict_scan_ns: u64,
    /// PTEs examined by the timed eviction line scans.
    pub evict_scan_ptes: u64,
}

impl CounterSnapshot {
    /// Mean fault-path nanoseconds per operation, or `None` with no ops.
    pub fn fault_ns_per_op(&self) -> Option<f64> {
        (self.fault_ops > 0).then(|| self.fault_ns as f64 / self.fault_ops as f64)
    }

    /// Mean reclaim-batch nanoseconds per batch, or `None` with no ops.
    pub fn reclaim_ns_per_op(&self) -> Option<f64> {
        (self.reclaim_ops > 0).then(|| self.reclaim_ns as f64 / self.reclaim_ops as f64)
    }

    /// Mean aging-walk host nanoseconds per PTE examined, or `None` when
    /// no aging scans ran. The examined count is simulation-deterministic,
    /// so before/after builds divide by the same denominator.
    pub fn aging_scan_ns_per_pte(&self) -> Option<f64> {
        (self.aging_scan_ptes > 0).then(|| self.aging_scan_ns as f64 / self.aging_scan_ptes as f64)
    }

    /// Mean eviction-scan host nanoseconds per PTE examined, or `None`
    /// when no spatial line scans ran.
    pub fn evict_scan_ns_per_pte(&self) -> Option<f64> {
        (self.evict_scan_ptes > 0).then(|| self.evict_scan_ns as f64 / self.evict_scan_ptes as f64)
    }
}

/// Whether this build carries the hot-path counters (`bench-counters`).
pub const ENABLED: bool = cfg!(feature = "bench-counters");

/// A timed hot path. Each variant owns one `[ns, units]` pair of cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// One page-fault path entry (`Kernel::fault`); units are ops.
    Fault,
    /// One reclaim batch: policy scan plus eviction application, for a
    /// kswapd slice or a direct reclaim round; units are batches.
    Reclaim,
    /// One aging-walk region scan; units are PTEs examined.
    AgingScan,
    /// One eviction spatial line-mask probe; units are PTEs examined.
    EvictScan,
}

impl Counter {
    /// Every counter, in cell order.
    pub const ALL: [Counter; 4] = [
        Counter::Fault,
        Counter::Reclaim,
        Counter::AgingScan,
        Counter::EvictScan,
    ];
}

thread_local! {
    /// `[ns, units]` per [`Counter`], indexed by the variant.
    static CELLS: [[Cell<u64>; 2]; Counter::ALL.len()] =
        const { [const { [const { Cell::new(0) }; 2] }; Counter::ALL.len()] };
}

/// RAII timer charging its lifetime to one [`Counter`].
#[must_use = "a timer measures until it is dropped"]
pub struct Timer {
    counter: Counter,
    units: u64,
    // lint: allow(wall-clock) see module header: side-channel measurement only
    start: Option<Instant>,
}

impl Timer {
    /// Starts timing one entry into `counter`'s path. It charges one unit
    /// when dropped unless [`Timer::set_units`] says otherwise.
    #[inline]
    pub fn start(counter: Counter) -> Timer {
        Timer {
            counter,
            units: 1,
            // lint: allow(wall-clock) see module header: side-channel measurement only
            start: ENABLED.then(Instant::now),
        }
    }

    /// Charges `n` units instead of one (a scan credits the PTEs it
    /// examined).
    #[inline]
    pub fn set_units(&mut self, n: u64) {
        self.units = n;
    }
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        // The constant first: without the feature this body is empty, so
        // the optimizer deletes the timer along with its unwind cleanup.
        if !ENABLED {
            return;
        }
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            CELLS.with(|cells| {
                let [total_ns, units] = &cells[self.counter as usize];
                total_ns.set(total_ns.get().saturating_add(ns));
                units.set(units.get().saturating_add(self.units));
            });
        }
    }
}

/// Zeroes this thread's counters (call before a measurement window).
pub fn reset() {
    take();
}

/// Reads and zeroes this thread's counters (call after the window).
pub fn take() -> CounterSnapshot {
    let [fault, reclaim, aging, evict] = CELLS.with(|cells| {
        cells
            .each_ref()
            .map(|[ns, units]| (ns.take(), units.take()))
    });
    CounterSnapshot {
        fault_ns: fault.0,
        fault_ops: fault.1,
        reclaim_ns: reclaim.0,
        reclaim_ops: reclaim.1,
        aging_scan_ns: aging.0,
        aging_scan_ptes: aging.1,
        evict_scan_ns: evict.0,
        evict_scan_ptes: evict.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot fields a counter must charge, written out by hand so
    /// an index mix-up between [`Counter`] and [`take`] shows up.
    type Fields = fn(&mut CounterSnapshot) -> (&mut u64, &mut u64);

    /// Every counter with its snapshot fields and the units a timer
    /// charges: `None` counts one op per timer, `Some(n)` credits `n`.
    const TABLE: [(Counter, Fields, Option<u64>); 4] = [
        (
            Counter::Fault,
            |s| (&mut s.fault_ns, &mut s.fault_ops),
            None,
        ),
        (
            Counter::Reclaim,
            |s| (&mut s.reclaim_ns, &mut s.reclaim_ops),
            None,
        ),
        (
            Counter::AgingScan,
            |s| (&mut s.aging_scan_ns, &mut s.aging_scan_ptes),
            Some(512),
        ),
        (
            Counter::EvictScan,
            |s| (&mut s.evict_scan_ns, &mut s.evict_scan_ptes),
            Some(8),
        ),
    ];

    #[test]
    fn table_covers_every_counter() {
        let rows: Vec<Counter> = TABLE.iter().map(|&(c, _, _)| c).collect();
        assert_eq!(rows, Counter::ALL);
    }

    #[test]
    fn each_timer_charges_only_its_own_cells() {
        for (counter, fields, units) in TABLE {
            reset();
            for _ in 0..3 {
                let mut t = Timer::start(counter);
                if let Some(n) = units {
                    t.set_units(n);
                }
                // Hold the timer across at least one clock tick.
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() == 0 {
                    std::hint::spin_loop();
                }
                drop(t);
            }
            let mut snap = take();
            if !ENABLED {
                assert_eq!(snap, CounterSnapshot::default(), "{counter:?}");
                continue;
            }
            let (ns, charged) = fields(&mut snap);
            assert!(*ns > 0, "{counter:?} charged no time");
            // Fault and reclaim timers count ops; scans count PTEs.
            assert_eq!(*charged, 3 * units.unwrap_or(1), "{counter:?} units");
            (*ns, *charged) = (0, 0);
            assert_eq!(
                snap,
                CounterSnapshot::default(),
                "{counter:?} charged another cell"
            );
        }
    }

    #[test]
    fn take_zeroes_every_cell() {
        for counter in Counter::ALL {
            drop(Timer::start(counter));
        }
        let first = take();
        if ENABLED {
            assert!(first.fault_ns_per_op().is_some());
            assert!(first.reclaim_ns_per_op().is_some());
            assert!(first.aging_scan_ns_per_pte().is_some());
            assert!(first.evict_scan_ns_per_pte().is_some());
        }
        assert_eq!(take(), CounterSnapshot::default());
    }

    #[test]
    fn ns_per_op_is_none_without_ops() {
        let snap = CounterSnapshot::default();
        assert_eq!(snap.fault_ns_per_op(), None);
        assert_eq!(snap.reclaim_ns_per_op(), None);
        assert_eq!(snap.aging_scan_ns_per_pte(), None);
        assert_eq!(snap.evict_scan_ns_per_pte(), None);
    }
}
