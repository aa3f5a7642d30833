//! The unified scheduling policy consumed by the [`Pipeline`](crate::pipeline).
//!
//! One [`Policy`] answers *how is a job stream planned?* for every runtime
//! (scenario engine, dispatcher, fleet) along three orthogonal axes:
//!
//! * [`BackendKind`] — where GPU work executes (software emulation on the VP,
//!   or host-GPU multiplexing through the ΣVP runtime);
//! * [`InterleaveMode`] — which Kernel Interleaving pass orders a device log
//!   at the join and a held sync window (off, the greedy earliest-start
//!   scheduler of Fig. 4a, or the critical-path list scheduler);
//! * `coalesce` — whether Kernel Coalescing (plus the adaptive
//!   keep-the-better-timeline selection) runs.
//!
//! The remaining fields tune the one dispatch core every live runtime drives:
//! [`RetryPolicy`] (request-level robustness on the forwarding channel),
//! block-parallel `workers`, and the sync-window
//! knobs (`sync_hold`, quorum, window timeout, deadlines, watchdog). VP
//! stop/resume (Fig. 4b) is `sync_hold`; there is no separate admission axis.
//!
//! The CamelCase constants ([`Policy::Multiplexed`], [`Policy::Fifo`], …)
//! name the presets the experiments use.

/// Where the guest's GPU work executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Software GPU emulation inside each binary-translating VP (the paper's
    /// slow baseline, Fig. 1a).
    EmulatedOnVp,
    /// Host-GPU multiplexing through the ΣVP runtime (Fig. 1b).
    Multiplexed,
}

/// Which Kernel Interleaving pass orders a device log or a held sync window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterleaveMode {
    /// No reordering: jobs run in arrival order.
    Off,
    /// The greedy earliest-start list scheduler
    /// ([`reorder_async`](crate::interleave::reorder_async), Fig. 4a).
    EarliestStart,
    /// The HEFT-style critical-path list scheduler
    /// ([`reorder_critical_path`](crate::deps::reorder_critical_path)).
    CriticalPath,
}

/// Bounded-retry configuration for guest→host requests.
///
/// Fields are integers (microseconds / counts) so [`Policy`] keeps deriving
/// `Eq` and `Hash`; use [`RetryPolicy::timeout`] and [`RetryPolicy::backoff_s`]
/// for the derived time values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Receive timeout per attempt, in microseconds.
    pub timeout_us: u64,
    /// Base backoff after the first failure, in microseconds.
    pub backoff_base_us: u64,
    /// Multiplier applied to the backoff per additional failure.
    pub backoff_factor: u32,
    /// Jitter as a percentage of the backoff (the sleep is scaled by a random
    /// factor in `[1 - jitter, 1 + jitter]`).
    pub jitter_pct: u32,
}

impl RetryPolicy {
    /// Default retry discipline: 4 attempts, 25 ms timeout, 200 µs base
    /// backoff doubling per failure with ±25 % jitter.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 4,
        timeout_us: 25_000,
        backoff_base_us: 200,
        backoff_factor: 2,
        jitter_pct: 25,
    };

    /// No retries: one attempt with a long (60 s) timeout.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            timeout_us: 60_000_000,
            backoff_base_us: 0,
            backoff_factor: 1,
            jitter_pct: 0,
        }
    }

    /// The per-attempt receive timeout.
    pub fn timeout(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.timeout_us)
    }

    /// The per-attempt receive timeout in seconds.
    pub fn timeout_s(&self) -> f64 {
        self.timeout_us as f64 * 1e-6
    }

    /// Backoff before attempt `failures + 1`, in seconds. `unit` is a random
    /// factor in `[0, 1)` supplying the jitter.
    pub fn backoff_s(&self, failures: u32, unit: f64) -> f64 {
        if failures == 0 || self.backoff_base_us == 0 {
            return 0.0;
        }
        let exp = failures.saturating_sub(1).min(20);
        let base = self.backoff_base_us as f64
            * 1e-6
            * (self.backoff_factor.max(1) as f64).powi(exp as i32);
        let jitter = self.jitter_pct as f64 / 100.0;
        base * (1.0 - jitter + 2.0 * jitter * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// The unified scheduling/backend policy: one config consumed by the
/// [`Pipeline`](crate::pipeline::Pipeline) and by every runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Policy {
    /// Where GPU work executes.
    pub backend: BackendKind,
    /// Which interleaving pass orders a device log and a held window.
    pub interleave: InterleaveMode,
    /// Whether Kernel Coalescing (with adaptive selection) runs.
    pub coalesce: bool,
    /// Request-level retry/timeout discipline for the forwarding channel.
    pub retry: RetryPolicy,
    /// Worker threads per kernel launch for block-parallel SPTX execution.
    /// `0` means "one per available core"; `1` forces the sequential
    /// interpreter (the degenerate case used by differential tests).
    pub workers: u32,
    /// Sync-mode stop/resume dispatching: the dispatcher *holds* synchronous
    /// launches (a held launch is a stopped VP) until every live VP has
    /// one pending, then plans the whole window with the full pipeline —
    /// including the wave-packing pass — and resumes VPs in planned completion
    /// order. Off, synchronous launches are answered as they arrive, and
    /// interleaving is priced on the device logs at the join only.
    pub sync_hold: bool,
    /// Sync-mode flush quorum, in percent of eligible (connected and not
    /// quarantined) VPs. `100` (the default) reproduces lockstep flushing:
    /// a window dispatches only once every eligible VP holds a launch. Lower
    /// values flush a partial window as soon as
    /// `ceil(eligible * pct / 100)` VPs are held; late arrivals roll into the
    /// next window. Set via [`Policy::sync_quorum`].
    pub sync_quorum_pct: u32,
    /// Sync-mode window timeout in *simulated* microseconds. `0` disables the
    /// timeout. When set, a held window flushes once the newest observed
    /// simulated timestamp is this far past the window's oldest held launch,
    /// even if the quorum was never reached — so one slow VP bounds, rather
    /// than stalls, the platform. Set via [`Policy::sync_window_timeout`].
    pub sync_timeout_us: u64,
    /// End-to-end request deadline budget in *simulated* microseconds. `0`
    /// disables deadlines. When set, every request carries an absolute
    /// simulated-time deadline on its envelope; admission, hold, plan, and
    /// execute boundaries surface `DeadlineExceeded` instead of waiting past
    /// it. Set via [`Policy::with_deadline`].
    pub deadline_us: u64,
    /// Hung-VP watchdog threshold: quarantine a connected, unheld VP after
    /// this many consecutive flushed sync windows with no activity from it.
    /// `0` (the default) disables the watchdog.
    pub hang_windows: u32,
}

#[allow(non_upper_case_globals)]
impl Policy {
    /// Software GPU emulation on each VP (the slow baseline).
    pub const EmulatedOnVp: Policy = Policy {
        backend: BackendKind::EmulatedOnVp,
        interleave: InterleaveMode::Off,
        coalesce: false,
        retry: RetryPolicy::DEFAULT,
        workers: 0,
        sync_hold: false,
        sync_quorum_pct: 100,
        sync_timeout_us: 0,
        deadline_us: 0,
        hang_windows: 0,
    };
    /// Host-GPU multiplexing without the re-scheduler optimizations.
    pub const Multiplexed: Policy = Policy {
        backend: BackendKind::Multiplexed,
        interleave: InterleaveMode::Off,
        coalesce: false,
        retry: RetryPolicy::DEFAULT,
        workers: 0,
        sync_hold: false,
        sync_quorum_pct: 100,
        sync_timeout_us: 0,
        deadline_us: 0,
        hang_windows: 0,
    };
    /// Multiplexing plus Kernel Interleaving and Kernel Coalescing.
    pub const MultiplexedOptimized: Policy = Policy {
        backend: BackendKind::Multiplexed,
        interleave: InterleaveMode::EarliestStart,
        coalesce: true,
        retry: RetryPolicy::DEFAULT,
        workers: 0,
        sync_hold: false,
        sync_quorum_pct: 100,
        sync_timeout_us: 0,
        deadline_us: 0,
        hang_windows: 0,
    };
    /// Live VPs race for the host runtime; the device logs are interleaved
    /// by the re-scheduler at the join, nothing is coalesced.
    pub const Fifo: Policy = Policy {
        backend: BackendKind::Multiplexed,
        interleave: InterleaveMode::EarliestStart,
        coalesce: false,
        retry: RetryPolicy::DEFAULT,
        workers: 0,
        sync_hold: false,
        sync_quorum_pct: 100,
        sync_timeout_us: 0,
        deadline_us: 0,
        hang_windows: 0,
    };
    /// The emulation baseline ([`Policy::EmulatedOnVp`]).
    pub const fn emulated() -> Policy {
        Policy::EmulatedOnVp
    }

    /// Plain multiplexing ([`Policy::Multiplexed`]).
    pub const fn multiplexed() -> Policy {
        Policy::Multiplexed
    }

    /// Multiplexing with both re-scheduler optimizations
    /// ([`Policy::MultiplexedOptimized`]).
    pub const fn optimized() -> Policy {
        Policy::MultiplexedOptimized
    }

    /// Set the interleaving pass (builder style).
    pub const fn with_interleave(mut self, interleave: InterleaveMode) -> Policy {
        self.interleave = interleave;
        self
    }

    /// Enable or disable Kernel Coalescing (builder style).
    pub const fn with_coalesce(mut self, coalesce: bool) -> Policy {
        self.coalesce = coalesce;
        self
    }

    /// Set the request retry/timeout discipline (builder style).
    pub const fn with_retry(mut self, retry: RetryPolicy) -> Policy {
        self.retry = retry;
        self
    }

    /// Set the block-parallel worker count (builder style). `0` = one worker
    /// per available core, `1` = sequential execution.
    pub const fn with_workers(mut self, workers: u32) -> Policy {
        self.workers = workers;
        self
    }

    /// Enable or disable sync-mode hold/resume dispatching (builder style).
    pub const fn with_sync_hold(mut self, sync_hold: bool) -> Policy {
        self.sync_hold = sync_hold;
        self
    }

    /// Set the sync-mode flush quorum as a fraction of eligible VPs (builder
    /// style). Values are clamped to `(0, 1]` and stored in whole percent so
    /// [`Policy`] keeps deriving `Eq`/`Hash`; `1.0` reproduces lockstep
    /// all-VPs flushing.
    pub fn sync_quorum(mut self, fraction: f64) -> Policy {
        let pct = (fraction * 100.0).round() as i64;
        self.sync_quorum_pct = pct.clamp(1, 100) as u32;
        self
    }

    /// Set the sync-mode flush quorum in whole percent (builder style,
    /// const-friendly). `100` reproduces lockstep flushing.
    pub const fn with_sync_quorum_pct(mut self, pct: u32) -> Policy {
        self.sync_quorum_pct = if pct == 0 {
            1
        } else if pct > 100 {
            100
        } else {
            pct
        };
        self
    }

    /// Set the sync-mode window timeout in simulated seconds (builder style).
    /// `0.0` disables the timeout; otherwise a held window flushes once
    /// simulated time advances `sim_s` past its oldest held launch.
    pub fn sync_window_timeout(mut self, sim_s: f64) -> Policy {
        self.sync_timeout_us = if sim_s <= 0.0 { 0 } else { (sim_s * 1e6).ceil() as u64 };
        self
    }

    /// Set the sync-mode window timeout in simulated microseconds (builder
    /// style, const-friendly). `0` disables the timeout.
    pub const fn with_sync_timeout_us(mut self, us: u64) -> Policy {
        self.sync_timeout_us = us;
        self
    }

    /// Set the end-to-end request deadline budget in simulated seconds
    /// (builder style). `0.0` disables deadlines.
    pub fn with_deadline(mut self, sim_s: f64) -> Policy {
        self.deadline_us = if sim_s <= 0.0 { 0 } else { (sim_s * 1e6).ceil() as u64 };
        self
    }

    /// Set the end-to-end request deadline budget in simulated microseconds
    /// (builder style, const-friendly). `0` disables deadlines.
    pub const fn with_deadline_us(mut self, us: u64) -> Policy {
        self.deadline_us = us;
        self
    }

    /// Set the hung-VP watchdog threshold (builder style): quarantine a
    /// connected, unheld VP after this many consecutive flushed sync windows
    /// with no activity from it. `0` disables the watchdog.
    pub const fn with_hang_windows(mut self, windows: u32) -> Policy {
        self.hang_windows = windows;
        self
    }

    /// The sync-mode flush quorum as a fraction of eligible VPs.
    pub fn sync_quorum_fraction(&self) -> f64 {
        self.sync_quorum_pct as f64 / 100.0
    }

    /// The sync-mode window timeout in simulated seconds, if enabled.
    pub fn sync_timeout_s(&self) -> Option<f64> {
        (self.sync_timeout_us > 0).then_some(self.sync_timeout_us as f64 / 1e6)
    }

    /// The end-to-end request deadline budget in simulated seconds, if
    /// enabled.
    pub fn deadline_s(&self) -> Option<f64> {
        (self.deadline_us > 0).then_some(self.deadline_us as f64 / 1e6)
    }

    /// Whether any planning pass beyond dependency ordering is active.
    pub const fn plans(&self) -> bool {
        !matches!(self.interleave, InterleaveMode::Off) || self.coalesce
    }
}

impl Default for Policy {
    /// Plain multiplexing.
    fn default() -> Self {
        Policy::Multiplexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_consts_map_to_expected_axes() {
        assert_eq!(Policy::EmulatedOnVp.backend, BackendKind::EmulatedOnVp);
        assert_eq!(Policy::Multiplexed.interleave, InterleaveMode::Off);
        assert_eq!(Policy::MultiplexedOptimized.interleave, InterleaveMode::EarliestStart);
        assert_eq!(Policy::Fifo.interleave, InterleaveMode::EarliestStart);
        let coalescing: Vec<bool> =
            [Policy::Multiplexed, Policy::MultiplexedOptimized, Policy::Fifo]
                .iter()
                .map(|p| p.coalesce)
                .collect();
        assert_eq!(coalescing, [false, true, false]);
    }

    #[test]
    fn builders_compose() {
        let p = Policy::multiplexed()
            .with_interleave(InterleaveMode::CriticalPath)
            .with_coalesce(true)
            .with_workers(3);
        assert!(p.plans());
        assert_eq!(p.workers, 3);
        assert_eq!(Policy::default().workers, 0, "default is one worker per core");
        assert_eq!(p.interleave, InterleaveMode::CriticalPath);
        assert!(p.coalesce);
        assert!(!Policy::Multiplexed.plans());
    }

    #[test]
    fn retry_policy_defaults_and_backoff_grow() {
        let r = RetryPolicy::DEFAULT;
        assert_eq!(Policy::default().retry, r);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(r.backoff_s(0, 0.5), 0.0, "no backoff before the first failure");
        let b1 = r.backoff_s(1, 0.5);
        let b2 = r.backoff_s(2, 0.5);
        let b3 = r.backoff_s(3, 0.5);
        assert!((b1 - 200e-6).abs() < 1e-9, "unit=0.5 means no jitter offset");
        assert!((b2 / b1 - 2.0).abs() < 1e-9, "backoff doubles per failure");
        assert!((b3 / b2 - 2.0).abs() < 1e-9);
        let lo = r.backoff_s(1, 0.0);
        let hi = r.backoff_s(1, 0.999);
        assert!(lo < b1 && b1 < hi, "jitter spreads around the base");
        assert!((lo - 150e-6).abs() < 1e-9, "-25 % at unit=0");
    }

    #[test]
    fn liveness_knobs_default_off_and_encode_as_integers() {
        let d = Policy::default();
        assert_eq!(d.sync_quorum_pct, 100, "default quorum is lockstep (all VPs)");
        assert_eq!(d.sync_timeout_us, 0);
        assert_eq!(d.deadline_us, 0);
        assert_eq!(d.hang_windows, 0);
        assert_eq!(d.sync_timeout_s(), None);
        assert_eq!(d.deadline_s(), None);

        let p = Policy::MultiplexedOptimized
            .with_sync_hold(true)
            .sync_quorum(0.5)
            .sync_window_timeout(2e-5)
            .with_deadline(1e-3)
            .with_hang_windows(3);
        assert_eq!(p.sync_quorum_pct, 50);
        assert!((p.sync_quorum_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(p.sync_timeout_us, 20);
        assert_eq!(p.sync_timeout_s(), Some(2e-5));
        assert_eq!(p.deadline_us, 1_000);
        assert_eq!(p.deadline_s(), Some(1e-3));
        assert_eq!(p.hang_windows, 3);

        // Clamping: fractions outside (0, 1] snap to the nearest valid pct.
        assert_eq!(Policy::default().sync_quorum(0.0).sync_quorum_pct, 1);
        assert_eq!(Policy::default().sync_quorum(7.0).sync_quorum_pct, 100);
        assert_eq!(Policy::default().with_sync_quorum_pct(0).sync_quorum_pct, 1);
        assert_eq!(Policy::default().sync_window_timeout(0.0).sync_timeout_us, 0);

        // Integer encoding keeps the whole policy hashable.
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Policy::default());
        set.insert(p);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn with_retry_composes_and_hashes() {
        use std::collections::HashSet;
        let custom = RetryPolicy { max_attempts: 2, ..RetryPolicy::DEFAULT };
        let p = Policy::Fifo.with_retry(custom);
        assert_eq!(p.retry.max_attempts, 2);
        let mut set = HashSet::new();
        set.insert(Policy::Fifo);
        set.insert(p);
        assert_eq!(set.len(), 2, "retry participates in Eq/Hash");
    }
}
