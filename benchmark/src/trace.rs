//! The traced run's two instruments, both on the benchmark's side of the
//! program's public API:
//!
//! * a span recorder ([`Spans`]: name, layer, start, end, parent, request id;
//!   kept in memory, written out when the child ends), and
//! * an **inline replay** ([`Replay`]) of the workload's request stream,
//!   single-threaded, through a forwarding [`GpuService`] that performs every
//!   hop of the stack by hand — encode → decode → `HostRuntime::process` →
//!   encode → decode — with a span per hop.
//!
//! The benchmark may not put spans *inside* the program, so the two layers
//! below `HostRuntime::process` are re-measured right after each call: the
//! same operation on a mirror `GpuDevice` (same allocation sequence, hence
//! the same addresses and contents), and each launch once more on a bare
//! `Interpreter` over a mirror memory. Those spans are recorded as children of
//! the `process` span, so "self time = a span minus its children" yields
//! `core.host`, `gpu.device` and `sptx.interp` separately.
//!
//! What the replay cannot see — thread hand-off, queue wait, lock waits, the
//! dispatcher / shard loops, stealing and journal-replay migration — is the
//! residual: untraced `wall_s` minus the sum of the layers' busy time.

use std::collections::{BTreeMap, HashMap};

use sigmavp::host::{HostRuntime, JobRecord, RecordKind};
use sigmavp::plan::{lower_jobs, records_to_jobs, EngineEvaluator};
use sigmavp::plan_device;
use sigmavp_fleet::VpScript;
use sigmavp_gpu::alloc::DeviceBuffer;
use sigmavp_gpu::engine::simulate;
use sigmavp_gpu::{GpuArch, GpuDevice};
use sigmavp_ipc::codec;
use sigmavp_ipc::message::{Envelope, Request, Response, VpId, WireParam};
use sigmavp_ipc::queue::{Job, JobId, JobKind};
use sigmavp_sched::{PassCtx, Pipeline, Policy};
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::Tier;
use sigmavp_vp::error::VpError;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::AppEnv;

use crate::json::Value;
use crate::probe::{now_ns, GuestLog};
use crate::workloads::{self, Size};

/// The layers of the stack the share table reports, top to bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Guest,
    Codec,
    Host,
    Device,
    Interp,
    Plan,
    /// The benchmark's own scaffolding: never reported as a layer.
    Harness,
}

impl Layer {
    pub const REPORTED: [Layer; 6] =
        [Layer::Guest, Layer::Codec, Layer::Host, Layer::Device, Layer::Interp, Layer::Plan];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Guest => "vp.guest",
            Layer::Codec => "ipc.codec",
            Layer::Host => "core.host",
            Layer::Device => "gpu.device",
            Layer::Interp => "sptx.interp",
            Layer::Plan => "sched.plan",
            Layer::Harness => "harness",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// `job_uid`-style request id: `vp << 32 | seq`; `u64::MAX` for none.
    pub req: u64,
}

pub fn request_id(vp: u32, seq: u32) -> u64 {
    u64::from(vp) << 32 | u64::from(seq)
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Start a span now; finish it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, layer: Layer, parent: u32, req: u64) -> u32 {
        let start_ns = now_ns();
        self.push(Span { name, layer, start_ns, end_ns: start_ns, parent, req })
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Record a finished span.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a child span of `parent`.
    fn timed<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = now_ns();
        let out = f();
        let id = self.push(Span { name, layer, start_ns, end_ns: now_ns(), parent, req });
        (out, id)
    }

    /// Self time per span — its duration minus its children's — summed by
    /// layer, in seconds.
    pub fn busy_by_layer(&self) -> Vec<(Layer, f64)> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| (s.end_ns - s.start_ns) as i64).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                own[span.parent as usize] -= (span.end_ns - span.start_ns) as i64;
            }
        }
        Layer::REPORTED
            .iter()
            .map(|&layer| {
                let ns: i64 = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(_, o)| o)
                    .sum();
                (layer, ns as f64 * 1e-9)
            })
            .collect()
    }

    /// The first `cap` spans as JSON rows `[name, layer, start_ns, end_ns,
    /// parent, request]`, with the true total alongside.
    pub fn to_json(&self, cap: usize) -> Value {
        let rows = self
            .spans
            .iter()
            .take(cap)
            .map(|s| {
                Value::Arr(vec![
                    Value::Str(s.name.into()),
                    Value::Str(s.layer.name().into()),
                    Value::Num(s.start_ns as f64),
                    Value::Num(s.end_ns as f64),
                    if s.parent == NO_PARENT {
                        Value::Null
                    } else {
                        Value::Num(f64::from(s.parent))
                    },
                    if s.req == u64::MAX { Value::Null } else { Value::Num(s.req as f64) },
                ])
            })
            .collect();
        Value::obj([
            ("total_spans", Value::Num(self.spans.len() as f64)),
            ("truncated", Value::Bool(self.spans.len() > cap)),
            ("columns", Value::Str("name,layer,start_ns,end_ns,parent,request".into())),
            ("spans", Value::Arr(rows)),
        ])
    }

    /// Spans of the live traced run, from what the guest probes logged: one
    /// span per guest with one child per GPU call.
    pub fn from_guests(guests: &[GuestLog]) -> Spans {
        let mut spans = Spans::default();
        for guest in guests {
            let parent = spans.push(Span {
                name: "guest",
                layer: Layer::Guest,
                start_ns: guest.start_ns,
                end_ns: guest.end_ns,
                parent: NO_PARENT,
                req: u64::MAX,
            });
            for call in &guest.calls {
                spans.push(Span {
                    name: call.op.name(),
                    layer: Layer::Harness,
                    start_ns: call.start_ns,
                    end_ns: call.end_ns,
                    parent,
                    req: request_id(call.vp, call.seq),
                });
            }
        }
        spans
    }
}

/// The inline stack: every hop done by hand, single-threaded.
pub struct Replay {
    host: HostRuntime,
    arch: GpuArch,
    registry: KernelRegistry,
    mirror: GpuDevice,
    mirror_bufs: HashMap<u64, DeviceBuffer>,
    bare: Interpreter,
    bare_mem: Memory,
    /// The live runtime's pipeline — `None` where it never plans (the fleet's
    /// shard loop executes in arrival order) — and whether sync launches are
    /// held for cross-VP windows.
    pipeline: Option<Pipeline>,
    sync_hold: bool,
    seqs: HashMap<u32, u32>,
    pub spans: Spans,
    /// Span the next request hangs under.
    parent: u32,
}

impl Replay {
    pub fn new(registry: KernelRegistry, policy: &Policy, plans: bool) -> Replay {
        let arch = GpuArch::quadro_4000();
        let mut host = HostRuntime::new(arch.clone(), registry.clone());
        host.set_workers(policy.workers);
        let mut mirror = GpuDevice::new(arch.clone());
        mirror.set_workers(policy.workers);
        let bytes = arch.memory_bytes.min(sigmavp_gpu::device::DEFAULT_SIM_MEMORY_BYTES);
        Replay {
            host,
            arch,
            registry,
            mirror,
            mirror_bufs: HashMap::new(),
            bare: Interpreter::new().with_workers(policy.workers).with_tier(Tier::Warp),
            bare_mem: Memory::new(bytes as usize),
            pipeline: plans.then(|| Pipeline::from_policy(policy)),
            sync_hold: policy.sync_hold,
            seqs: HashMap::new(),
            spans: Spans::default(),
            parent: NO_PARENT,
        }
    }

    fn mirror_buf(&self, handle: u64) -> Result<DeviceBuffer, String> {
        self.mirror_bufs.get(&handle).copied().ok_or(format!("mirror: unknown handle {handle}"))
    }

    /// One guest request through every hop. Returns the response the guest
    /// would have decoded.
    pub fn round_trip(&mut self, vp: VpId, body: Request) -> Result<Response, String> {
        let seq = self.seqs.entry(vp.0).or_insert(0);
        let req = request_id(vp.0, *seq);
        let envelope = Envelope {
            vp,
            seq: u64::from(*seq),
            sent_at_s: 0.0,
            deadline_s: Envelope::NO_DEADLINE,
            body,
        };
        *seq += 1;
        let call = self.spans.open("round_trip", Layer::Harness, self.parent, req);

        let (frame, _) = self
            .spans
            .timed("encode_request", Layer::Codec, call, req, || codec::encode_request(&envelope));
        let (decoded, _) = self
            .spans
            .timed("decode_request", Layer::Codec, call, req, || codec::decode_request(&frame));
        let decoded = decoded.map_err(|e| format!("replay decode: {e}"))?;

        // The live dispatcher plans every pending window it drains (one job
        // here: a guest has one request in flight) unless it holds the launch
        // for a sync window — those are planned in `plan_windows`.
        let held = self.sync_hold && matches!(decoded.body, Request::Launch { sync: true, .. });
        if let (Some(pipeline), false) = (&self.pipeline, held) {
            let job = job_of(&decoded);
            self.spans.timed("plan_window", Layer::Plan, call, req, || {
                pipeline.plan(vec![job], &PassCtx::reorder_only())
            });
        }

        let (response, process) =
            self.spans.timed("process", Layer::Host, call, req, || self.host.process(&decoded));
        if let Response::Error { message } = &response.body {
            return Err(format!("replay: {message}"));
        }
        self.mirror_op(&decoded.body, &response.body, process, req)?;

        let (frame, _) = self.spans.timed("encode_response", Layer::Codec, call, req, || {
            codec::encode_response(&response)
        });
        let (back, _) = self
            .spans
            .timed("decode_response", Layer::Codec, call, req, || codec::decode_response(&frame));
        self.spans.close(call);
        back.map(|r| r.body).map_err(|e| format!("replay decode: {e}"))
    }

    /// Re-measure `request` one and two layers down (see the module docs).
    fn mirror_op(
        &mut self,
        request: &Request,
        response: &Response,
        process: u32,
        req: u64,
    ) -> Result<(), String> {
        match (request, response) {
            (Request::Malloc { bytes }, Response::Malloc { handle }) => {
                let (buf, _) = self
                    .spans
                    .timed("malloc", Layer::Device, process, req, || self.mirror.malloc(*bytes));
                self.mirror_bufs.insert(*handle, buf.map_err(|e| format!("mirror: {e}"))?);
            }
            (Request::Free { handle }, _) => {
                let buf = self.mirror_buf(*handle)?;
                self.mirror_bufs.remove(handle);
                let (freed, _) =
                    self.spans.timed("free", Layer::Device, process, req, || self.mirror.free(buf));
                freed.map_err(|e| format!("mirror: {e}"))?;
            }
            (Request::MemcpyH2D { handle, data, .. }, _) => {
                let buf = self.mirror_buf(*handle)?;
                let (copied, _) =
                    self.spans.timed("memcpy_h2d", Layer::Device, process, req, || {
                        self.mirror.memcpy_h2d(buf, data)
                    });
                copied.map_err(|e| format!("mirror: {e}"))?;
                self.bare_mem.write_slice(buf.addr(), data).map_err(|e| format!("mirror: {e}"))?;
            }
            (Request::MemcpyD2H { handle, len, .. }, _) => {
                let buf = self.mirror_buf(*handle)?;
                let mut out = vec![0u8; *len as usize];
                let (copied, _) =
                    self.spans.timed("memcpy_d2h", Layer::Device, process, req, || {
                        self.mirror.memcpy_d2h(&mut out, buf)
                    });
                copied.map_err(|e| format!("mirror: {e}"))?;
            }
            (Request::Launch { kernel, grid_dim, block_dim, params, .. }, _) => {
                let program = self.registry.get(kernel).map_err(|e| e.to_string())?;
                let resolved = params
                    .iter()
                    .map(|p| match p {
                        WireParam::Buffer(h) => {
                            self.mirror_buf(*h).map(|b| ParamValue::Ptr(b.addr()))
                        }
                        WireParam::F64(v) => Ok(ParamValue::F64(*v)),
                        WireParam::I64(v) => Ok(ParamValue::I64(*v)),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let cfg = LaunchConfig::linear(*grid_dim, *block_dim);
                let (run, launch) = self.spans.timed("launch", Layer::Device, process, req, || {
                    self.mirror.launch(&program, &cfg, &resolved)
                });
                run.map_err(|e| format!("mirror: {e}"))?;
                let (profile, _) =
                    self.spans.timed("interpret", Layer::Interp, launch, req, || {
                        self.bare.run(&program, &cfg, &resolved, &mut self.bare_mem)
                    });
                profile.map_err(|e| format!("mirror interpreter: {e}"))?;
            }
            (Request::Synchronize, _) => {}
            (request, response) => {
                return Err(format!("mirror: {request:?} answered with {response:?}"));
            }
        }
        Ok(())
    }

    /// What the live dispatcher does with held sync launches, on the replay's
    /// job log: plan each cross-VP window through the full pipeline, price the
    /// live and the reorder-only plan, and — as `join` does — plan and price
    /// the whole device log once at the end.
    ///
    /// Windows are reconstructed from the log: a VP with fewer launches than
    /// the busiest one joins every (busiest ÷ own)-th window, which is how the
    /// lockstep windows of `coalesce_sync` fill (a `vectorAdd` VP's one launch
    /// per iteration meets the first of a `BlackScholes` VP's sixteen).
    pub fn plan_windows(&mut self, coalescible: &HashMap<u32, bool>) {
        let Some(pipeline) = &self.pipeline else { return };
        let records: Vec<JobRecord> = self.host.records().to_vec();
        let coalescible_fn = |vp: VpId| coalescible.get(&vp.0).copied().unwrap_or(false);
        let arch = self.arch.clone();
        if self.sync_hold {
            let mut per_vp: BTreeMap<u32, Vec<&JobRecord>> = BTreeMap::new();
            for r in records.iter().filter(|r| matches!(r.kind, RecordKind::Kernel { .. })) {
                per_vp.entry(r.vp.0).or_default().push(r);
            }
            let windows = per_vp.values().map(Vec::len).max().unwrap_or(0);
            for w in 0..windows {
                let members: Vec<JobRecord> = per_vp
                    .values()
                    .filter_map(|launches| {
                        let stride = windows / launches.len();
                        let record: &JobRecord =
                            launches.get(w / stride).filter(|_| w % stride == 0)?;
                        Some(record.clone())
                    })
                    .collect();
                self.spans.timed("plan_sync_window", Layer::Plan, NO_PARENT, u64::MAX, || {
                    let jobs = records_to_jobs(&members);
                    let evaluator = EngineEvaluator::new(&arch, &members);
                    let lanes = |block_dim: u32| arch.blocks_per_wave(block_dim);
                    let ctx = PassCtx::new(&coalescible_fn)
                        .with_evaluator(&evaluator)
                        .with_wave_lanes(&lanes)
                        .with_live_sync(true);
                    let planned = pipeline.plan(jobs.clone(), &ctx);
                    let live = simulate(
                        &arch,
                        &lower_jobs(&planned.jobs, &members, &planned.groups, &arch),
                    );
                    let reorder = pipeline.plan(jobs, &PassCtx::reorder_only());
                    let plain = simulate(&arch, &lower_jobs(&reorder.jobs, &members, &[], &arch));
                    std::hint::black_box((live.makespan_s, plain.makespan_s))
                });
            }
        }
        self.spans.timed("plan_device", Layer::Plan, NO_PARENT, u64::MAX, || {
            std::hint::black_box(
                plan_device(pipeline, &records, &coalescible_fn, &arch).timeline.makespan_s,
            )
        });
    }
}

/// The queue job the dispatcher would build for `envelope`.
fn job_of(envelope: &Envelope) -> Job {
    let kind = match &envelope.body {
        Request::MemcpyH2D { data, .. } => JobKind::CopyIn { bytes: data.len() as u64 },
        Request::MemcpyD2H { len, .. } => JobKind::CopyOut { bytes: *len },
        Request::Launch { kernel, grid_dim, block_dim, .. } => {
            JobKind::Kernel { name: kernel.clone(), grid_dim: *grid_dim, block_dim: *block_dim }
        }
        _ => JobKind::CopyIn { bytes: 0 },
    };
    Job {
        id: JobId(envelope.seq),
        vp: envelope.vp,
        seq: envelope.seq,
        kind,
        sync: true,
        enqueued_at_s: envelope.sent_at_s,
        expected_duration_s: 0.0,
    }
}

/// The guest's view of the inline stack, for replaying applications.
struct ReplayGpu<'a> {
    replay: &'a mut Replay,
    vp: VpId,
}

impl ReplayGpu<'_> {
    fn call(&mut self, body: Request) -> Result<Response, VpError> {
        self.replay.round_trip(self.vp, body).map_err(VpError::Device)
    }
}

impl GpuService for ReplayGpu<'_> {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.call(Request::Malloc { bytes })? {
            Response::Malloc { handle } => Ok((handle, 0.0)),
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }
    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        self.call(Request::Free { handle }).map(|_| 0.0)
    }
    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.call(Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 }).map(|_| 0.0)
    }
    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        match self.call(Request::MemcpyD2H { handle, len: out.len() as u64, stream: 0 })? {
            Response::Data { data } if data.len() == out.len() => {
                out.copy_from_slice(&data);
                Ok(0.0)
            }
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }
    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        let request = Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream: 0,
        };
        match self.call(request)? {
            Response::Launched { device_time_s } => Ok(device_time_s),
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }
    fn synchronize(&mut self) -> Result<f64, VpError> {
        self.call(Request::Synchronize).map(|_| 0.0)
    }
}

/// Replay `name`'s request stream inline. Applications run one after the
/// other, each validating its own results; fleet scripts run in the live
/// driver's wavefront order and check their read-backs.
pub fn replay(name: &str, size: Size, seed: u64) -> Result<Replay, String> {
    if let Some((apps, policy)) = workloads::dispatched_spec(name, size, seed) {
        let mut replay = Replay::new(workloads::registry_of(&apps), &policy, true);
        let mut coalescible = HashMap::new();
        for (vp, app) in apps.iter().enumerate() {
            let vp = VpId(vp as u32);
            coalescible.insert(vp.0, app.characteristics().coalescible);
            let guest = replay.spans.open("guest", Layer::Guest, NO_PARENT, u64::MAX);
            replay.parent = guest;
            let mut platform = VirtualPlatform::new(vp);
            let mut gpu = ReplayGpu { replay: &mut replay, vp };
            let result = app.run_once(&mut AppEnv::new(&mut platform, &mut gpu));
            replay.spans.close(guest);
            result.map_err(|e| format!("replay of {} on {vp}: {e}", app.name()))?;
        }
        replay.plan_windows(&coalescible);
        return Ok(replay);
    }

    // The fleet's shard loop executes in arrival order without planning, and
    // prices its job logs at shutdown, outside the timed region.
    let mut replay = Replay::new(workloads::fleet_registry(), &Policy::Fifo.with_workers(1), false);
    let vps = size.fleet_vps as usize;
    for round in 0..size.fleet_rounds {
        let mut scripts: Vec<VpScript> =
            (0..vps).map(|vp| workloads::fleet_script(vp as u32, round, seed)).collect();
        let mut last: Vec<Option<Response>> = vec![None; vps];
        while scripts.iter().any(|s| !s.is_done()) {
            for vp in 0..vps {
                if scripts[vp].is_done() {
                    continue;
                }
                // The script is the guest: building the next request (payload
                // generation, read-back verification) is guest time.
                let guest = replay.spans.open("guest", Layer::Guest, NO_PARENT, u64::MAX);
                replay.parent = guest;
                let request = scripts[vp]
                    .next(last[vp].take().as_ref())
                    .map_err(|e| format!("vp{vp}: {e}"))?;
                let response = request.map(|r| replay.round_trip(VpId(vp as u32), r)).transpose();
                replay.spans.close(guest);
                last[vp] = response?;
            }
        }
    }
    Ok(replay)
}
