//! Pieces shared by every workload: the metric record, medians, CPU
//! time, the standalone stream drain, peak RSS, output digests and
//! goldens.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use pagesim::RunMetrics;
use pagesim_workloads::{Op, Workload};

/// What one workload run reports: operations attempted and failed, every
/// metric it measured, and the output digest two commits can compare.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// FNV-1a over every simulated output of one operation.
    pub digest: u64,
    /// Exact simulated counts of one operation, for `--bless`.
    pub fingerprint: String,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The exact simulated counts of the layers, summed over `runs`.
    pub fn set_counts(&mut self, runs: &[&RunMetrics]) {
        let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
        self.set("core.accesses", sum(|m| m.accesses));
        self.set("core.major_faults", sum(|m| m.major_faults));
        self.set("core.evictions", sum(|m| m.evictions));
        self.set("core.kswapd_batches", sum(|m| m.kswapd_batches));
        self.set("core.direct_reclaims", sum(|m| m.direct_reclaims));
        self.set("core.aging_runs", sum(|m| m.aging_runs));
        self.set("core.pgscan_kswapd", sum(|m| m.pgscan_kswapd));
        self.set("core.pgscan_direct", sum(|m| m.pgscan_direct));
        self.set("core.workingset_refault", sum(|m| m.workingset_refault));
        self.set("swap.reads", sum(|m| m.swap_stats.reads));
        self.set("swap.writes", sum(|m| m.swap_stats.writes));
        self.set("policy.pte_scans", sum(|m| m.policy.pte_scans));
        self.set("policy.rmap_walks", sum(|m| m.policy.rmap_walks));
        self.set("policy.promotions", sum(|m| m.policy.promotions));
        self.set("policy.regions_walked", sum(|m| m.policy.regions_walked));
    }

    /// Counts one operation; `problems` empty means it passed its checks.
    pub fn operation(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU seconds this process has run so far, every thread counted
/// (`CLOCK_PROCESS_CPUTIME_ID`). The kernel charges a thread only while
/// it is on a CPU and, on a guest with steal-time accounting, not while
/// the hypervisor runs another guest. So unlike wall time it does not
/// grow when other work on the host takes the CPU away.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout for
    // the whole call, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Keeps the memory a trial frees in the process, for the next trial.
///
/// A guest kernel with free page reporting (virtio-balloon) hands freed
/// memory back to the hypervisor, and touching it again costs a host
/// page fault whose price depends on what else the host is doing. A
/// trial that allocated a fresh 160 MiB would measure that. With glibc's
/// trim threshold at its maximum and every allocation up to 32 MiB (its
/// largest mmap threshold) taken from the heap, the trials after the
/// first reuse pages the process already holds. Call it before any
/// thread starts.
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets glibc malloc parameters, and no other
    // thread is allocating yet.
    let ok = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    assert!(ok, "glibc refused the malloc parameters");
}

/// Wall and CPU time since it started. Every timing metric is built on
/// the CPU part; the wall part bounds how long a run measures, and shows
/// as `host.wall_s` how much the host stretched it.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// CPU seconds since the start.
    pub fn cpu(self) -> f64 {
        cpu_now() - self.cpu
    }

    /// Wall seconds since the start.
    pub fn wall(self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Slots of the calibration buffer: 128 MiB of `u64`, far larger than
/// any cache, about the size of a paper-native trial's state.
const CALIBRATION_SLOTS: usize = 1 << 24;
/// Random read-modify-writes in one calibration.
const CALIBRATION_STEPS: u32 = 4_000_000;
/// CPU seconds one calibration takes on the reference host (README,
/// "Noise"). It sets only the scale of the normalised timings.
const CALIBRATION_REFERENCE_S: f64 = 0.06;

/// How fast the host runs memory-bound code, sampled between operations.
///
/// A calibration makes random read-modify-writes over a buffer of its
/// own that stays in memory for the whole run. It is benchmark code, the
/// same at every commit of the program, so its CPU time changes only
/// with the host: other tenants' load on the shared caches and DRAM.
/// The native workloads, which wait on DRAM as it does, divide every
/// timing by the host factor around it: the CPU time the operation would
/// take on the reference host. fig11-sweep only reports the calibration.
pub struct Host {
    buf: Vec<u64>,
    samples: Vec<f64>,
    /// `VmHWM` before the buffer existed.
    peak_before_mib: f64,
}

impl Host {
    /// Allocates the buffer and samples the host once, before the first
    /// operation.
    pub fn new() -> Host {
        let peak_before_mib = vm_hwm_mib();
        let mut host = Host {
            buf: vec![1; CALIBRATION_SLOTS],
            samples: Vec::new(),
            peak_before_mib,
        };
        host.calibrate();
        host
    }

    /// Runs one calibration.
    pub fn calibrate(&mut self) {
        let t = Stopwatch::start();
        let mask = self.buf.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ self.samples.len() as u64;
        for _ in 0..CALIBRATION_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        std::hint::black_box(&self.buf);
        self.samples.push(t.cpu());
    }

    /// How much slower than the reference host the host ran the last
    /// operation: the mean of the two calibrations around it.
    pub fn last_factor(&self) -> f64 {
        let n = self.samples.len();
        assert!(n >= 2, "an operation needs a calibration on each side");
        (self.samples[n - 2] + self.samples[n - 1]) / 2.0 / CALIBRATION_REFERENCE_S
    }

    /// The host factor of the whole run, for what was timed outside the
    /// operations: the median calibration.
    pub fn run_factor(&self) -> f64 {
        self.calibration_s() / CALIBRATION_REFERENCE_S
    }

    /// CPU seconds of the median calibration.
    pub fn calibration_s(&self) -> f64 {
        median(&self.samples)
    }

    /// The process's peak RSS in MiB, the calibration buffer left out.
    /// The buffer stays resident from its allocation on, so after it the
    /// peak of everything else is `VmHWM` minus its size.
    pub fn peak_rss_mib(&self) -> f64 {
        let buf_mib = (self.buf.len() * std::mem::size_of::<u64>()) as f64 / (1 << 20) as f64;
        self.peak_before_mib.max(vm_hwm_mib() - buf_mib)
    }
}

/// Whether a run that started at `start` and must measure for `seconds`
/// starts another operation, given the wall seconds of those so far: it
/// does while the next one, if as long as the last, would end less than
/// half an operation past the deadline.
pub fn keep_going(start: Stopwatch, seconds: f64, op_walls: &[f64]) -> bool {
    op_walls
        .last()
        .is_none_or(|last| start.wall() + last / 2.0 < seconds)
}

/// Ops and page touches a standalone drain of a workload's streams
/// produced, and the CPU seconds it took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drain {
    pub ops: u64,
    pub touches: u64,
    pub secs: f64,
}

impl Drain {
    pub fn add(self, other: Drain) -> Drain {
        Drain {
            ops: self.ops + other.ops,
            touches: self.touches + other.touches,
            secs: self.secs + other.secs,
        }
    }

    pub fn ns_per_op(self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }
}

/// Pulls every op out of `workload.streams(seed)` without simulating
/// anything: the cost of the workloads layer on its own, and the number
/// of touches the kernel must complete for the same seed.
pub fn drain(workload: &dyn Workload, seed: u64) -> Drain {
    let t = Stopwatch::start();
    let (mut ops, mut touches) = (0u64, 0u64);
    for mut stream in workload.streams(seed) {
        loop {
            match std::hint::black_box(stream.next_op()) {
                Op::Done => break,
                Op::Access { .. } | Op::FdAccess { .. } => touches += 1,
                _ => {}
            }
            ops += 1;
        }
    }
    Drain {
        ops,
        touches,
        secs: t.cpu(),
    }
}

/// `VmHWM` of this process in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The exact outputs of one trial that a speed-only change must not move:
/// touches, faults, evictions, simulated runtime and every vmstat row.
pub fn fingerprint(m: &RunMetrics) -> String {
    let mut parts = vec![
        format!("accesses={}", m.accesses),
        format!("minor_faults={}", m.minor_faults),
        format!("major_faults={}", m.major_faults),
        format!("evictions={}", m.evictions),
        format!("runtime_ns={}", m.runtime_ns),
    ];
    parts.extend(m.vmstat().iter().map(|(k, v)| format!("{k}={v}")));
    parts.join(" ")
}

/// The accounting identities every trial must satisfy, whatever the
/// policy or medium; an empty result means the books balance.
pub fn conservation(m: &RunMetrics) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{what} (accesses={})", m.accesses));
        }
    };
    expect(m.error.is_none(), "simulation error");
    expect(
        m.evictions == m.swap_outs + m.clean_drops,
        "evictions != swap_outs + clean_drops",
    );
    expect(
        m.swap_outs == m.swap_stats.writes,
        "swap_outs != device writes",
    );
    expect(
        m.minor_faults + m.major_faults >= m.evictions,
        "evicted more than faulted in",
    );
    expect(
        m.minor_faults <= u64::from(m.footprint_pages),
        "more first touches than pages",
    );
    expect(
        m.runtime_ns > 0 && m.app_cpu_ns > 0,
        "no simulated time passed",
    );
    bad
}

/// Looks up the golden fingerprint blessed for `seed` in `file`, whose
/// lines read `<seed> <fingerprint>`. `None` when the seed has no golden.
pub fn golden(file: &Path, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|line| {
        let (s, fp) = line.split_once(' ')?;
        (s.parse::<u64>().ok()? == seed).then(|| fp.trim().to_owned())
    })
}
