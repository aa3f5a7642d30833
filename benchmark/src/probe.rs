//! Guest-side measurement and the benchmark's own guest applications.
//!
//! Everything here sits *outside* the program under test: [`Probed`] wraps an
//! [`Application`] and slides a timing [`GpuService`] between it and whatever
//! backend the runtime installed, so each guest GPU call is timed exactly
//! where a guest would observe it — request issued → response in hand.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sigmavp_ipc::message::WireParam;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::error::VpError;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::{validation_error, AppEnv, AppTraits, Application};
use sigmavp_workloads::kernels;

/// Nanoseconds since the first call in this process — one clock for every
/// sample and span so they can be laid on one timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The guest GPU calls that are timed individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Malloc,
    H2d,
    Launch,
    D2h,
    Free,
    Sync,
}

impl Op {
    pub const REPORTED: [Op; 5] = [Op::Malloc, Op::H2d, Op::Launch, Op::D2h, Op::Free];

    pub fn name(self) -> &'static str {
        match self {
            Op::Malloc => "malloc",
            Op::H2d => "h2d",
            Op::Launch => "launch",
            Op::D2h => "d2h",
            Op::Free => "free",
            Op::Sync => "sync",
        }
    }
}

/// One guest-observed request: issued at `start_ns`, answered at `end_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub vp: u32,
    /// The VP's request ordinal (equals the wire sequence number on a
    /// fault-free link, where nothing is retried).
    pub seq: u32,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Sample {
    pub fn latency_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// What one VP's guest did: the whole `run_once` interval plus every call.
#[derive(Debug, Clone)]
pub struct GuestLog {
    pub vp: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: Vec<Sample>,
}

/// Where the VP threads drop their logs when their application returns.
pub type Sink = Arc<Mutex<Vec<GuestLog>>>;

struct TimedGpu<'a> {
    inner: &'a mut dyn GpuService,
    vp: u32,
    calls: Vec<Sample>,
}

impl TimedGpu<'_> {
    fn timed<T>(&mut self, op: Op, f: impl FnOnce(&mut dyn GpuService) -> T) -> T {
        let start_ns = now_ns();
        let out = f(self.inner);
        let seq = self.calls.len() as u32;
        self.calls.push(Sample { vp: self.vp, seq, op, start_ns, end_ns: now_ns() });
        out
    }
}

impl GpuService for TimedGpu<'_> {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        self.timed(Op::Malloc, |g| g.malloc(bytes))
    }
    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        self.timed(Op::Free, |g| g.free(handle))
    }
    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.timed(Op::H2d, |g| g.memcpy_h2d(handle, data))
    }
    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        self.timed(Op::D2h, |g| g.memcpy_d2h(handle, out))
    }
    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        self.timed(Op::Launch, |g| g.launch(kernel, grid_dim, block_dim, params, sync))
    }
    fn synchronize(&mut self) -> Result<f64, VpError> {
        self.timed(Op::Sync, |g| g.synchronize())
    }
}

/// An application with a probe between it and the GPU backend. The probe's
/// cost is two clock reads per call (tens of nanoseconds against a round trip
/// of tens of microseconds) and it is present in traced and untraced runs
/// alike, so the two execute the same code.
pub struct Probed {
    inner: Box<dyn Application + Send>,
    sink: Sink,
}

impl Probed {
    pub fn wrap(inner: Box<dyn Application + Send>, sink: &Sink) -> Box<dyn Application + Send> {
        Box::new(Probed { inner, sink: Arc::clone(sink) })
    }
}

impl Application for Probed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kernels(&self) -> Vec<KernelProgram> {
        self.inner.kernels()
    }
    fn characteristics(&self) -> AppTraits {
        self.inner.characteristics()
    }
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let vp = env.vp.id().0;
        let mut gpu = TimedGpu { inner: &mut *env.gpu, vp, calls: Vec::new() };
        let start_ns = now_ns();
        let result = self.inner.run_once(&mut AppEnv::new(&mut *env.vp, &mut gpu));
        let log = GuestLog { vp, start_ns, end_ns: now_ns(), calls: gpu.calls };
        self.sink.lock().expect("a VP thread panicked holding the sink").push(log);
        result
    }
}

/// Runs the wrapped application `times` times back to back on one VP.
pub struct Repeat {
    pub inner: Box<dyn Application + Send>,
    pub times: u32,
}

impl Application for Repeat {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kernels(&self) -> Vec<KernelProgram> {
        self.inner.kernels()
    }
    fn characteristics(&self) -> AppTraits {
        self.inner.characteristics()
    }
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        (0..self.times).try_for_each(|_| self.inner.run_once(env))
    }
}

/// Elements (and threads) of the one-CTA `vector_add` the RPC guest launches.
const RPC_ELEMS: usize = 64;

/// The latency-floor guest: `iterations` × (3 malloc, 2 h2d of 256 B, one
/// 1-CTA × 64 launch, 1 d2h, 3 free), every result checked. No queueing (one
/// VP), no planning, next to no compute.
pub struct RpcApp {
    pub iterations: u32,
    pub seed: u64,
}

impl RpcApp {
    fn inputs(&self, iteration: u32) -> ([f32; RPC_ELEMS], [f32; RPC_ELEMS]) {
        let mut state = self.seed ^ (u64::from(iteration) << 20);
        let mut next = || (crate::splitmix64(&mut state) % 2000) as f32 * 0.25 - 250.0;
        (std::array::from_fn(|_| next()), std::array::from_fn(|_| next()))
    }
}

fn to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

impl Application for RpcApp {
    fn name(&self) -> &str {
        "rpcRoundtrip"
    }
    fn kernels(&self) -> Vec<KernelProgram> {
        vec![kernels::vector_add()]
    }
    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let bytes = (RPC_ELEMS * 4) as u64;
        let mut out = vec![0u8; RPC_ELEMS * 4];
        for iteration in 0..self.iterations {
            let (a, b) = self.inputs(iteration);
            let mut cuda = env.cuda();
            let da = cuda.malloc(bytes)?;
            let db = cuda.malloc(bytes)?;
            let dc = cuda.malloc(bytes)?;
            cuda.memcpy_h2d(da, &to_bytes(&a))?;
            cuda.memcpy_h2d(db, &to_bytes(&b))?;
            let params = [da.param(), db.param(), dc.param(), WireParam::I64(RPC_ELEMS as i64)];
            cuda.launch_sync("vector_add", 1, RPC_ELEMS as u32, &params)?;
            cuda.memcpy_d2h(&mut out, dc)?;
            for buf in [da, db, dc] {
                cuda.free(buf)?;
            }
            for (i, chunk) in out.chunks_exact(4).enumerate() {
                let got = f32::from_le_bytes(chunk.try_into().expect("chunk is four bytes"));
                if got != a[i] + b[i] {
                    return Err(validation_error(
                        self.name(),
                        format!(
                            "iteration {iteration} element {i}: got {got}, want {}",
                            a[i] + b[i]
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}
