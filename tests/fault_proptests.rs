//! Property-based fault-injection tests: under *any* schedule of frame drops,
//! corruption, and delays, request-level retry plus host-side dedup must be
//! effect-once — no kernel or memcpy is ever lost or applied twice.
//!
//! The probe workload doubles a buffer in place twice (`x * 4` total), a
//! deliberately non-idempotent kernel: a single double-execution of either
//! launch (or of an h2d racing a launch) changes the final bytes, so the app's
//! own validation is exactly the "device memory equals the fault-free run"
//! oracle the fault model promises.
//!
//! The second property is about what recovery replays: the journal forgets a
//! guest's history whenever the guest holds no buffer, and must never forget
//! anything a replay needs.

use std::sync::Mutex;

use proptest::prelude::*;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::{HostRuntime, Policy, RetryPolicy};
use sigmavp_fault::{
    replay_journal, FaultPlan, HandleMap, JournalEntry, LinkFaultConfig, VpJournal,
};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Envelope, Request, Response, VpId, WireParam};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::error::VpError;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{download, p, upload, AppEnv, AppTraits, Application};

/// Serializes runs (the telemetry collector is process-global, and keeping the
/// fleets sequential keeps the wall-clock timing assumptions honest).
static RUNS: Mutex<()> = Mutex::new(());

/// Doubles every f32 in a buffer, twice. Applying either launch a second time
/// yields `x * 8` somewhere and fails validation.
#[derive(Debug, Clone)]
struct ScaleTwiceApp {
    n: u64,
}

const SCALE_ASM: &str = ".kernel scale\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    ld.f32 r2, [r1 + r0]\n    add.f32 r2, r2, r2\n    st.f32 [r1 + r0], r2\n    ret\n";

impl Application for ScaleTwiceApp {
    fn name(&self) -> &str {
        "scaleTwice"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        vec![sigmavp_sptx::asm::parse(SCALE_ASM).expect("scale kernel parses")]
    }

    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let n = self.n as usize;
        let input: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
        let bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut cuda = env.cuda();
        let buf = upload(&mut cuda, &bytes)?;
        for _ in 0..2 {
            cuda.launch_sync("scale", self.n.div_ceil(64) as u32, 64, &[p(buf)])?;
        }
        let out = download(&mut cuda, buf)?;
        cuda.free(buf)?;
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let got = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            let want = input[i] * 4.0;
            if got != want {
                return Err(VpError::Device(format!(
                    "element {i}: got {got}, want {want} — a job was lost or double-applied"
                )));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and any drop/corrupt/delay probabilities in range, a
    /// two-VP fleet completes with every request executed exactly once and
    /// device memory identical to the fault-free run (per-app validation).
    #[test]
    fn retry_and_dedup_are_effect_once(
        seed in 0u64..1_000_000,
        drop_prob in 0.0f64..0.10,
        corrupt_prob in 0.0f64..0.06,
        delay_prob in 0.0f64..0.10,
        delay_us in 1.0f64..500.0,
    ) {
        let _guard = RUNS.lock().unwrap();
        let plan = FaultPlan::seeded(seed).with_link(
            LinkFaultConfig::lossy(drop_prob, corrupt_prob).with_delay(delay_prob, delay_us * 1e-6),
        );
        // A short receive timeout keeps dropped frames cheap; a deep attempt
        // budget makes run failure astronomically unlikely at these rates.
        let retry = RetryPolicy {
            max_attempts: 8,
            timeout_us: 3_000,
            backoff_base_us: 100,
            backoff_factor: 2,
            jitter_pct: 25,
        };
        let registry: KernelRegistry =
            ScaleTwiceApp { n: 256 }.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::Fifo.with_retry(retry))
        .with_faults(plan);
        for _ in 0..2 {
            sys.spawn(Box::new(ScaleTwiceApp { n: 256 }));
        }
        let (report, _stats) = sys.join();
        prop_assert!(
            report.all_ok(),
            "outcomes: {:?}, failed: {:?}",
            report.outcomes,
            report.failed_vps
        );
        // Exactly-once at the job-log level too: 2 VPs x (h2d + 2 kernels + d2h),
        // every (vp, seq) unique.
        prop_assert_eq!(report.records.len(), 2 * 4);
        let unique: std::collections::HashSet<(u32, u64)> =
            report.records.iter().map(|r| (r.vp.0, r.seq)).collect();
        prop_assert_eq!(unique.len(), 2 * 4);
    }
}

/// Buffer size of the journal property's scripts: one 64-thread block of f32.
const BLOCK_BYTES: u64 = 64 * 4;

fn scale_runtime() -> HostRuntime {
    let registry = ScaleTwiceApp { n: 64 }.kernels().into_iter().collect();
    HostRuntime::new(GpuArch::quadro_4000(), registry)
}

fn envelope(seq: u64, body: Request) -> Envelope {
    Envelope { vp: VpId(0), seq, sent_at_s: 0.0, deadline_s: Envelope::NO_DEADLINE, body }
}

fn read_back(runtime: &mut HostRuntime, handle: u64) -> Response {
    let read = Request::MemcpyD2H { handle, len: BLOCK_BYTES, stream: 0 };
    runtime.process(&envelope(0, read)).body
}

/// One guest on one runtime, with the two records under test kept beside it:
/// the forgetting journal and the never-forgetting history of the same
/// entries.
struct JournaledGuest {
    runtime: HostRuntime,
    journal: VpJournal,
    history: Vec<JournalEntry>,
    /// Guest handles allocated and not yet freed.
    live: Vec<u64>,
}

impl JournaledGuest {
    fn issue(&mut self, request: Request) -> Response {
        let seq = self.history.len() as u64;
        let response = self.runtime.process(&envelope(seq, request.clone())).body;
        match (&request, &response) {
            (_, Response::Malloc { handle }) => self.live.push(*handle),
            (Request::Free { handle }, Response::Done) => self.live.retain(|h| h != handle),
            _ => assert!(!matches!(response, Response::Error { .. }), "{response:?}"),
        }
        self.journal.record(seq, &request, &response);
        self.history.push(JournalEntry { seq, request, response: response.clone() });
        response
    }
}

/// The reference: every entry ever recorded, replayed in order onto a fresh
/// runtime by this test's own loop.
fn replay_everything(history: &[JournalEntry]) -> (HostRuntime, HandleMap) {
    let mut runtime = scale_runtime();
    let mut map = HandleMap::new();
    for entry in history {
        let request = map.translate(&entry.request).expect("history names live handles only");
        let response = runtime.process_replay(&envelope(entry.seq, request)).body;
        match (&entry.request, &entry.response, response) {
            (_, Response::Malloc { handle: guest }, Response::Malloc { handle: device }) => {
                map.insert(*guest, device)
            }
            (Request::Free { handle }, _, Response::Done) => map.remove(*handle),
            (_, _, response) => assert!(!matches!(response, Response::Error { .. })),
        }
    }
    (runtime, map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any script of allocations (each initialised by an upload — device
    /// memory a guest never wrote is not state), further uploads, in-place
    /// launches and frees (at most four live buffers, freed in any order):
    /// after every step the forgetting journal rebuilds on a fresh runtime
    /// exactly the bytes the guest would read — the same bytes as the
    /// original runtime holds and as the full history rebuilds — and it is
    /// empty exactly when the guest holds no buffer.
    #[test]
    fn forgetting_journal_rebuilds_exactly_the_live_state(
        script in proptest::collection::vec((0u8..4, 0usize..4, any::<u8>()), 1..40),
    ) {
        let mut guest = JournaledGuest {
            runtime: scale_runtime(),
            journal: VpJournal::default(),
            history: Vec::new(),
            live: Vec::new(),
        };
        for (kind, pick, fill) in script {
            let upload = |handle| Request::MemcpyH2D {
                handle,
                data: f32::from(fill).to_le_bytes().repeat(64),
                stream: 0,
            };
            let picked = guest.live.get(pick % guest.live.len().max(1)).copied();
            match (kind, picked) {
                (0, _) | (_, None) if guest.live.len() < 4 => {
                    let allocated = guest.issue(Request::Malloc { bytes: BLOCK_BYTES });
                    let Response::Malloc { handle } = allocated else { panic!("{allocated:?}") };
                    guest.issue(upload(handle));
                }
                (0 | 1, Some(handle)) => drop(guest.issue(upload(handle))),
                (2, Some(handle)) => drop(guest.issue(Request::Launch {
                    kernel: "scale".into(),
                    grid_dim: 1,
                    block_dim: 64,
                    params: vec![WireParam::Buffer(handle)],
                    sync: true,
                    stream: 0,
                })),
                (_, Some(handle)) => drop(guest.issue(Request::Free { handle })),
                (_, None) => unreachable!("an empty live set is below the cap"),
            }
            prop_assert_eq!(guest.journal.is_empty(), guest.live.is_empty());

            let mut survivor = scale_runtime();
            let map = replay_journal(&guest.journal, |seq, request| {
                survivor.process_replay(&envelope(seq, request.clone())).body
            });
            let map = map.expect("the survivor accepts the replay");
            prop_assert_eq!(survivor.live_handles(), guest.live.len());
            let (mut reference, reference_map) = replay_everything(&guest.history);
            for &handle in &guest.live {
                let want = read_back(&mut guest.runtime, handle);
                prop_assert!(matches!(want, Response::Data { .. }), "{:?}", want);
                let on_survivor = map.device_of(handle).expect("live handle is mapped");
                prop_assert_eq!(&read_back(&mut survivor, on_survivor), &want);
                let on_reference = reference_map.device_of(handle).expect("mapped");
                prop_assert_eq!(&read_back(&mut reference, on_reference), &want);
            }
        }
    }
}
