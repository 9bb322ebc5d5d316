//! Shared pieces: seeded generator, FNV fingerprint, op accounting,
//! percentiles and the per-workload result.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, fed by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the bit patterns of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold 64 bits in.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold an `f64`'s bit pattern in.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold every value of a slice in.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Latency samples and failure counts of one run's timed ops.
#[derive(Debug, Default)]
pub struct Ops {
    /// Host time of each op that succeeded, ms.
    pub lat_ms: Vec<f64>,
    /// Per op kind, each of those times divided by the reference-kernel
    /// sample taken just before the op.
    pub rel: Vec<Vec<f64>>,
    /// Ops started (or, after a panic, written off).
    pub attempted: u64,
    /// Ops that panicked, returned an error, were refused, or broke an
    /// invariant.
    pub failed: u64,
}

impl Ops {
    /// Record one op of kind `kind`: its latency (and its latency relative
    /// to the reference sample `ref_ms`) when it succeeded, a failure
    /// otherwise.
    pub fn record(&mut self, ms: f64, ok: bool, ref_ms: f64, kind: usize) {
        self.attempted += 1;
        if ok {
            self.lat_ms.push(ms);
            if self.rel.len() <= kind {
                self.rel.resize_with(kind + 1, Vec::new);
            }
            self.rel[kind].push(ms / ref_ms);
        } else {
            self.failed += 1;
        }
    }

    /// The reference-relative op time: the geometric mean over op kinds of
    /// each kind's median ratio, and of each kind's [`tail`] ratio, with
    /// the tail percentile of each kind. A kind's weight does not depend
    /// on how many of its ops ran, so ops lost to failures do not shift
    /// the figures toward the other kinds.
    pub fn relative(&self) -> (f64, f64, Vec<f64>) {
        let kinds: Vec<&Vec<f64>> = self.rel.iter().filter(|r| !r.is_empty()).collect();
        let geomean =
            |xs: Vec<f64>| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
        let tails: Vec<(f64, f64)> = kinds.iter().map(|r| tail(r)).collect();
        (
            geomean(kinds.iter().map(|r| median(r)).collect()),
            geomean(tails.iter().map(|t| t.1).collect()),
            tails.iter().map(|t| t.0).collect(),
        )
    }

    /// Write off `n` ops as failed without running them.
    pub fn write_off(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }
}

static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

/// Replace the default panic report (a backtrace hint per panic) with one
/// stderr line, and remember it for [`guarded`].
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        let at = info
            .location()
            .map_or_else(String::new, |l| format!(" at {}:{}", l.file(), l.line()));
        let line = format!("{msg}{at}");
        eprintln!("caught panic: {line}");
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = line;
        }
    }));
}

/// Run `f`, catching a panic: `Err` carries the panic message and location.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| {
        crate::trace::reset_thread();
        LAST_PANIC
            .lock()
            .map(|l| l.clone())
            .unwrap_or_else(|_| "panic".into())
    })
}

/// Run `f` and return its result with the host time it took, ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The reference kernel, owned by the benchmark and independent of the
/// crates: an xorshift/multiply-add chain, a sort of 32 Ki words, and
/// insert/remove churn in a 16 Ki-key `BTreeMap`. Its host time tracks how
/// fast the host runs at the moment, which on a shared machine drifts by
/// tens of percent over minutes. The three parts feel different kinds of
/// contention (arithmetic, cache, allocator), as the simulators do, so no
/// single kind sets the reference. Returns its host time, ms.
fn reference_kernel() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x1234_5678u64;
    let mut f = 1.0f64;
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = f * 0.999_999 + (x >> 40) as f64 * 1e-9;
    }
    let mut v: Vec<u64> = (0..32_768u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut acc = 0u64;
    for r in 0..2 {
        v.sort_unstable_by_key(|x| x.rotate_left(r));
        acc = acc.wrapping_add(v[v.len() / 2]);
    }
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 16_384;
        match map.remove(&k) {
            Some(v) => acc = acc.wrapping_add(v),
            None => {
                map.insert(k, i);
            }
        }
    }
    std::hint::black_box((acc, f));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Samples the reference kernel between ops, on as many threads as the
/// workload computes on, so op times can be reported relative to the
/// host's speed during the same run.
#[derive(Debug)]
pub struct RefClock {
    threads: usize,
    last: Option<Instant>,
    samples_ms: Vec<f64>,
    spent_s: f64,
}

impl RefClock {
    /// Seconds between samples.
    const EVERY_S: f64 = 0.25;

    /// A clock whose kernel runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            last: None,
            samples_ms: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Run the kernel if a sample is due.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= Self::EVERY_S)
        {
            self.sample();
        }
    }

    /// Run the kernel now; records and returns the threads' mean time, ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        // A single-threaded workload samples on its own thread, so the
        // kernel sees the core the ops run on; a spawned thread may land on
        // the other one.
        let ms: f64 = if self.threads == 1 {
            reference_kernel()
        } else {
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..self.threads)
                    .map(|_| s.spawn(reference_kernel))
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("the reference kernel does not panic"))
                    .sum()
            })
        };
        let ms = ms / self.threads as f64;
        self.samples_ms.push(ms);
        self.spent_s += t0.elapsed().as_secs_f64();
        self.last = Some(Instant::now());
        ms
    }

    /// The latest sample, ms.
    pub fn latest_ms(&self) -> f64 {
        self.samples_ms.last().copied().unwrap_or(f64::NAN)
    }

    /// Median kernel time, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// Run `op(0, r)`, `op(1, r)`, … back to back (a closed loop), sampling
/// `clock` between ops; `r` is the latest kernel sample, ms. The loop runs
/// whole cycles of `cycle` ops: as many as it takes to fill `seconds` at
/// `cycle_s` seconds per cycle (the cycle's host time at the nominal
/// kernel speed, [`REF_NOMINAL_MS`]), rounded up. The op count is fixed by
/// the arguments and not by the host's speed, so a run's op mix and its
/// attempted and failed counts depend on the seed and `seconds` alone; at
/// the nominal speed the ops take about `seconds`. Returns the host time
/// the ops took, s (the kernel's excluded).
pub fn run_for(
    seconds: f64,
    cycle: usize,
    cycle_s: f64,
    clock: &mut RefClock,
    mut op: impl FnMut(usize, f64),
) -> f64 {
    let t0 = Instant::now();
    let spent0 = clock.spent_s;
    let cycles = ((seconds / cycle_s).ceil() as usize).max(1);
    for k in 0..cycles * cycle {
        clock.tick();
        op(k, clock.latest_ms());
    }
    t0.elapsed().as_secs_f64() - (clock.spent_s - spent0)
}

/// Threads `par_map` and `run_cluster` compute on: one per available core,
/// as the vendored rayon stand-in spawns them.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 5;

/// A round figure for the reference kernel's time on the host the
/// benchmark was sized on, ms per thread (its run medians there read
/// 10–15 ms). `setup_s` is reported in seconds at this kernel speed.
pub const REF_NOMINAL_MS: f64 = 13.0;

/// Host times of a run's set-ups.
#[derive(Debug, Default)]
pub struct Setup {
    /// Host time of each set-up, s.
    pub raw_s: Vec<f64>,
    /// The reference-kernel samples taken between the set-ups, ms.
    pub ref_ms: Vec<f64>,
}

impl Setup {
    /// The median set-up host time rescaled to the nominal kernel speed:
    /// × `REF_NOMINAL_MS` ÷ the median kernel sample taken between the
    /// set-ups, s.
    pub fn nominal_s(&self) -> f64 {
        median(&self.raw_s) * REF_NOMINAL_MS / median(&self.ref_ms)
    }
}

/// Build a workload `reps` times (input generation, construction and one
/// untimed warm-up op each), sampling `clock` before the first build and
/// after each, and keep the last build.
pub fn setup_reps<T>(
    reps: usize,
    clock: &mut RefClock,
    mut build: impl FnMut() -> T,
) -> (T, Setup) {
    let mut setup = Setup::default();
    let mut last = None;
    // The process's first kernel run pays for cold pages and caches.
    clock.sample();
    setup.ref_ms.push(clock.sample());
    for _ in 0..reps {
        let t0 = Instant::now();
        let w = build();
        setup.raw_s.push(t0.elapsed().as_secs_f64());
        setup.ref_ms.push(clock.sample());
        last = Some(w);
    }
    // The timed loop's samples start afresh.
    clock.samples_ms.clear();
    clock.last = None;
    (last.expect("at least one setup repetition"), setup)
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it: `(percentile, value)`. Falls back to the median below twenty
/// samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 10] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0];
    let n = xs.len() as f64;
    let p = LADDER
        .iter()
        .copied()
        .find(|p| (n * (1.0 - p / 100.0)).floor() >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(xs, p / 100.0))
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Host times of the set-ups.
    pub setup: Setup,
    /// The timed ops.
    pub ops: Ops,
    /// Host time of the timed loop's ops, s.
    pub wall_s: f64,
    /// Median reference-kernel time over the timed loop, ms.
    pub ref_ms: f64,
    /// FNV over the simulated outputs of the first op cycle.
    pub fingerprint: u64,
    /// Every output check passed (self-check rerun, traced-composition
    /// bit identity).
    pub correct: bool,
    /// Workload-specific end-to-end metrics: (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Free-text lines printed with the report (first panic, check
    /// results).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Record the self-check: `what` rerun after the timed loop hashed to
    /// `again`, and must equal its first-cycle hash `first`.
    pub fn self_check(&mut self, what: &str, again: u64, first: u64) {
        self.correct = again == first;
        self.notes.push(format!(
            "self-check: {what} rerun hash {again:016x} {}",
            if self.correct { "matches" } else { "MISMATCH" }
        ));
    }
}
