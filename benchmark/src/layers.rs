//! `--layers`: one micro-benchmark per layer, each a fixed amount of seeded
//! work timed around one public call. No criterion (the offline stand-in has
//! no statistics): every entry is the median of [`BATCHES`] batches, the batch
//! size auto-scaled so a batch lasts `budget / BATCHES` (10 ms at the default
//! budget).
//!
//! Which end-to-end metric each entry should move, and on which workload, is
//! tabulated in the README and in `BENCHMARK.json`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use sigmavp::host::{HostRuntime, JobRecord, RecordKind};
use sigmavp::plan::{lower_jobs, records_to_jobs, EngineEvaluator};
use sigmavp::plan_device;
use sigmavp_fault::{replay_journal, VpJournal};
use sigmavp_fleet::{Fleet, FleetConfig};
use sigmavp_gpu::engine::simulate;
use sigmavp_gpu::{GpuArch, GpuDevice};
use sigmavp_ipc::codec;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId, WireParam};
use sigmavp_ipc::queue::{Job, JobId, JobKind, JobQueue};
use sigmavp_ipc::transport::{pair, Transport, TransportCost};
use sigmavp_sched::{PassCtx, Pipeline, Policy};
use sigmavp_sptx::asm;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::{KernelProgram, Tier};
use sigmavp_telemetry::{Lane, TimeDomain};
use sigmavp_workloads::kernels;

use crate::splitmix64;
use crate::stats::median;
use crate::workloads::fleet_registry;

pub const BATCHES: usize = 30;
/// Per-entry budget of a full `--layers` run: 30 batches of 10 ms.
pub const FULL_BUDGET_S: f64 = 0.3;

/// One measured entry of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

struct Bench {
    budget_s: f64,
    seed: u64,
    entries: Vec<Entry>,
}

fn time_n(n: u64, mut op: impl FnMut()) -> Duration {
    let started = Instant::now();
    for _ in 0..n {
        op();
    }
    started.elapsed()
}

impl Bench {
    /// Median nanoseconds per operation. `batch(n)` performs `n` operations
    /// and returns how long *they* took, so it can set up and tear down
    /// around the timed part.
    fn ns_per_op(&self, mut batch: impl FnMut(u64) -> Duration) -> f64 {
        let target = Duration::from_secs_f64(self.budget_s / BATCHES as f64);
        let mut n = 1u64;
        loop {
            let took = batch(n);
            if took >= target || n >= 1 << 28 {
                break;
            }
            let scale =
                if took.is_zero() { 16.0 } else { target.as_secs_f64() / took.as_secs_f64() };
            n = ((n as f64 * scale * 1.1).ceil() as u64).clamp(n + 1, n * 16);
        }
        let per_op: Vec<f64> =
            (0..BATCHES).map(|_| batch(n).as_nanos() as f64 / n as f64).collect();
        median(&per_op)
    }

    fn record(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.entries.push(Entry { name: name.into(), unit, value });
    }

    /// A random stream that depends on `--seed` and `salt` only: memory
    /// contents never depend on anything else.
    fn stream(&self, salt: u64) -> impl FnMut() -> u64 {
        let mut state = self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        move || splitmix64(&mut state)
    }

    fn bytes(&self, salt: u64, len: usize) -> Vec<u8> {
        let mut next = self.stream(salt);
        (0..len).map(|_| next() as u8).collect()
    }

    fn f32_bytes(&self, salt: u64, n: usize) -> Vec<u8> {
        let mut next = self.stream(salt);
        (0..n).flat_map(|_| ((next() % 4000) as f32 * 0.25).to_le_bytes()).collect()
    }
}

fn envelope(seq: u64, body: Request) -> Envelope {
    Envelope { vp: VpId(0), seq, sent_at_s: 0.0, deadline_s: Envelope::NO_DEADLINE, body }
}

fn launch_request(handles: [u64; 3], n: u32, block_dim: u32) -> Request {
    Request::Launch {
        kernel: "vector_add".into(),
        grid_dim: n.div_ceil(block_dim),
        block_dim,
        params: vec![
            WireParam::Buffer(handles[0]),
            WireParam::Buffer(handles[1]),
            WireParam::Buffer(handles[2]),
            WireParam::I64(i64::from(n)),
        ],
        sync: true,
        stream: 0,
    }
}

fn malloc_handle(host: &mut HostRuntime, bytes: u64) -> u64 {
    match host.process(&envelope(0, Request::Malloc { bytes })).body {
        Response::Malloc { handle } => handle,
        other => panic!("malloc answered {other:?}"),
    }
}

// --- ipc ------------------------------------------------------------------------

fn ipc(b: &mut Bench) {
    let request = envelope(7, launch_request([1, 2, 3], 1024, 256));
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            let frame = codec::encode_request(std::hint::black_box(&request));
            std::hint::black_box(codec::decode_request(&frame).expect("round trip"));
        })
    });
    b.record("ipc.codec.req_ns", "ns", ns);

    let response = ResponseEnvelope {
        vp: VpId(0),
        seq: 7,
        sent_at_s: 0.0,
        body: Response::Launched { device_time_s: 1.25e-5 },
    };
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            let frame = codec::encode_response(std::hint::black_box(&response));
            std::hint::black_box(codec::decode_response(&frame).expect("round trip"));
        })
    });
    b.record("ipc.codec.resp_ns", "ns", ns);

    const MIB: usize = 1 << 20;
    let bulk = envelope(8, Request::MemcpyH2D { handle: 1, data: b.bytes(1, MIB), stream: 0 });
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            let frame = codec::encode_request(std::hint::black_box(&bulk));
            std::hint::black_box(codec::decode_request(&frame).expect("round trip"));
        })
    });
    b.record("ipc.codec.bulk_bytes_per_s", "B/s", MIB as f64 / (ns * 1e-9));

    let frame = codec::encode_request(&request);
    let (guest, host) = pair(TransportCost::shared_memory());
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            guest.send(frame.clone()).expect("peer alive");
            std::hint::black_box(host.recv().expect("peer alive"));
        })
    });
    b.record("ipc.transport.same_thread_ns", "ns", ns);

    // Cross-thread ping-pong with the live system's waiting discipline: the
    // host end polls `try_recv` and yields (the dispatcher loop), the guest
    // end waits in `recv_deadline` (`RemoteGpu::round_trip`). An empty frame
    // stops the echo thread.
    let (guest, host) = pair(TransportCost::shared_memory());
    let ns = std::thread::scope(|scope| {
        let echo = scope.spawn(move || loop {
            match host.try_recv().expect("guest alive") {
                Some(frame) if frame.is_empty() => break,
                Some(frame) => {
                    host.send(frame).expect("guest alive");
                }
                None => std::thread::yield_now(),
            }
        });
        let far = Instant::now() + Duration::from_secs(3600);
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                guest.send(frame.clone()).expect("echo alive");
                std::hint::black_box(guest.recv_deadline(far).expect("echo alive"));
            })
        });
        guest.send(Bytes::new()).expect("echo alive");
        echo.join().expect("echo thread");
        ns
    });
    b.record("ipc.transport.handoff_ns", "ns", ns / 2.0);

    let queue = JobQueue::new();
    let job = Job {
        id: JobId(0),
        vp: VpId(0),
        seq: 0,
        kind: JobKind::Kernel { name: "vector_add".into(), grid_dim: 4, block_dim: 256 },
        sync: true,
        enqueued_at_s: 0.0,
        expected_duration_s: 1e-5,
    };
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            queue.push(Job { id: queue.next_id(), ..job.clone() });
            std::hint::black_box(queue.pop());
        })
    });
    b.record("ipc.queue.push_pop_ns", "ns", ns);
}

// --- sched / plan / engine --------------------------------------------------------

fn kernel_record(vp: u32, seq: u64, arch: &GpuArch) -> JobRecord {
    JobRecord {
        vp: VpId(vp),
        seq,
        kind: RecordKind::Kernel {
            name: "vector_add".into(),
            grid_dim: 4,
            block_dim: 256,
            launch_overhead_s: arch.launch_overhead_us * 1e-6,
            waves: 1,
            stream: 0,
        },
        duration_s: 2e-5,
        sent_at_s: 0.0,
    }
}

/// `vps` serial copy-in → kernel → copy-out programs (the Fig. 9 pattern).
fn mixed_records(vps: u32, arch: &GpuArch) -> Vec<JobRecord> {
    (0..vps)
        .flat_map(|vp| {
            let copy = |seq, kind| JobRecord {
                vp: VpId(vp),
                seq,
                kind,
                duration_s: arch.copy_time_s(4096),
                sent_at_s: 0.0,
            };
            [
                copy(0, RecordKind::H2d { bytes: 4096, stream: 0 }),
                kernel_record(vp, 1, arch),
                copy(2, RecordKind::D2h { bytes: 4096, stream: 0 }),
            ]
        })
        .collect()
}

fn sched(b: &mut Bench) {
    let arch = GpuArch::quadro_4000();
    let coalescible = |_: VpId| true;
    let lanes = |block_dim: u32| arch.blocks_per_wave(block_dim);

    // A live sync window: one held launch per VP, planned as the dispatcher does.
    let live = Pipeline::from_policy(&Policy::optimized().with_sync_hold(true));
    for width in [8u32, 256] {
        let records: Vec<JobRecord> = (0..width).map(|vp| kernel_record(vp, 0, &arch)).collect();
        let jobs = records_to_jobs(&records);
        let evaluator = EngineEvaluator::new(&arch, &records);
        let ctx = PassCtx::new(&coalescible)
            .with_evaluator(&evaluator)
            .with_wave_lanes(&lanes)
            .with_live_sync(true);
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                std::hint::black_box(live.plan(jobs.clone(), &ctx));
            })
        });
        b.record(format!("sched.plan.ns_per_job.w{width}"), "ns", ns / f64::from(width));
    }

    let records = mixed_records(64, &arch);
    let jobs = records_to_jobs(&records);
    let evaluator = EngineEvaluator::new(&arch, &records);
    let ctx = PassCtx::new(&coalescible).with_evaluator(&evaluator).with_wave_lanes(&lanes);
    for pass in ["dep_order", "interleave", "coalesce", "wave_pack"] {
        let pipeline = Pipeline::parse(pass).expect("a known pass");
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                std::hint::black_box(pipeline.plan(jobs.clone(), &ctx));
            })
        });
        b.record(format!("sched.pass.{pass}.ns_per_job"), "ns", ns / jobs.len() as f64);
    }

    let optimized = Pipeline::from_policy(&Policy::optimized());
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(plan_device(&optimized, &records, &coalescible, &arch));
        })
    });
    b.record("core.plan_device.ns_per_record", "ns", ns / records.len() as f64);

    let ops = lower_jobs(&jobs, &records, &[], &arch);
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(simulate(&arch, &ops));
        })
    });
    b.record("gpu.engine.simulate_ns_per_op", "ns", ns / ops.len() as f64);
}

// --- core.host / gpu.device ---------------------------------------------------------

/// Elements of the fleet's `vector_add` launch (4 CTAs × 256).
const FLEET_ELEMS: u32 = 1024;
/// Operations per fresh runtime: bounds the job log and the profiler log, which
/// only ever grow.
const OPS_PER_RUNTIME: u64 = 4096;

/// Time `n` runs of `op` against runtimes that are rebuilt (untimed) every
/// [`OPS_PER_RUNTIME`] operations.
fn on_fresh_runtimes<S>(
    n: u64,
    mut build: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> Duration {
    let mut total = Duration::ZERO;
    let mut left = n;
    while left > 0 {
        let chunk = left.min(OPS_PER_RUNTIME);
        let mut state = build();
        total += time_n(chunk, || op(&mut state));
        left -= chunk;
    }
    total
}

fn host_and_device(b: &mut Bench) {
    let arch = GpuArch::quadro_4000();
    let vector_bytes = u64::from(FLEET_ELEMS) * 4;
    let payload = b.f32_bytes(2, FLEET_ELEMS as usize);
    let new_host = || HostRuntime::new(arch.clone(), fleet_registry());

    let malloc = envelope(0, Request::Malloc { bytes: 256 });
    let ns = b.ns_per_op(|n| {
        on_fresh_runtimes(n, new_host, |host| {
            std::hint::black_box(host.process(&malloc));
        })
    });
    b.record("core.host.process_ns.malloc", "ns", ns);

    // Frees need something to free: allocate (untimed) a runtime's worth first.
    let ns = b.ns_per_op(|n| {
        let mut total = Duration::ZERO;
        let mut left = n;
        while left > 0 {
            let chunk = left.min(OPS_PER_RUNTIME);
            let mut host = new_host();
            let frees: Vec<Envelope> = (0..chunk)
                .map(|_| envelope(0, Request::Free { handle: malloc_handle(&mut host, 256) }))
                .collect();
            let started = Instant::now();
            for free in &frees {
                std::hint::black_box(host.process(free));
            }
            total += started.elapsed();
            left -= chunk;
        }
        total
    });
    b.record("core.host.process_ns.free", "ns", ns);

    // Handles are dense from 1 in a fresh runtime, so the envelopes are built once.
    let with_vectors = || {
        let mut host = new_host();
        let handles = [0; 3].map(|_| malloc_handle(&mut host, vector_bytes));
        assert_eq!(handles, [1, 2, 3]);
        for handle in [1, 2] {
            host.process(&envelope(
                0,
                Request::MemcpyH2D { handle, data: payload.clone(), stream: 0 },
            ));
        }
        host
    };
    let prebuilt = [
        ("h2d", Request::MemcpyH2D { handle: 1, data: payload.clone(), stream: 0 }),
        ("d2h", Request::MemcpyD2H { handle: 1, len: vector_bytes, stream: 0 }),
        ("launch", launch_request([1, 2, 3], FLEET_ELEMS, 256)),
    ];
    for (label, request) in prebuilt {
        let request = envelope(1, request);
        let ns = b.ns_per_op(|n| {
            on_fresh_runtimes(n, with_vectors, |host| {
                std::hint::black_box(host.process(&request));
            })
        });
        b.record(format!("core.host.process_ns.{label}"), "ns", ns);
    }

    // One CTA of vector_add straight on the device.
    let program = kernels::vector_add();
    let one_cta = b.f32_bytes(3, 64);
    let cfg = LaunchConfig::linear(1, 64);
    let device_with_vectors = || {
        let mut device = GpuDevice::new(arch.clone());
        let bufs = [0; 3].map(|_| device.malloc(256).expect("device has room"));
        device.memcpy_h2d(bufs[0], &one_cta).expect("sizes match");
        device.memcpy_h2d(bufs[1], &one_cta).expect("sizes match");
        let params: Vec<ParamValue> = bufs
            .iter()
            .map(|buf| ParamValue::Ptr(buf.addr()))
            .chain([ParamValue::I64(64)])
            .collect();
        (device, params)
    };
    let ns = b.ns_per_op(|n| {
        on_fresh_runtimes(n, device_with_vectors, |(device, params)| {
            std::hint::black_box(device.launch(&program, &cfg, params).expect("launch succeeds"));
        })
    });
    b.record("gpu.device.launch_ns", "ns", ns);

    // The same launch on a bare interpreter: the difference to the row above
    // is what the device layer itself (cost model, profiler log) adds.
    let interp = Interpreter::new().with_workers(1).with_tier(Tier::Warp);
    let mut mem = Memory::new(3 * 256);
    mem.write_slice(0, &one_cta).expect("in range");
    mem.write_slice(256, &one_cta).expect("in range");
    let params =
        [ParamValue::Ptr(0), ParamValue::Ptr(256), ParamValue::Ptr(512), ParamValue::I64(64)];
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(interp.run(&program, &cfg, &params, &mut mem).expect("runs"));
        })
    });
    b.record("sptx.launch.one_cta_ns", "ns", ns);

    const MIB: usize = 1 << 20;
    let block = b.bytes(4, MIB);
    let mut device = GpuDevice::new(arch.clone());
    let buf = device.malloc(MIB as u64).expect("device has room");
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(device.memcpy_h2d(buf, &block).expect("sizes match"));
        })
    });
    b.record("gpu.device.memcpy_bytes_per_s", "B/s", MIB as f64 / (ns * 1e-9));
}

// --- sptx --------------------------------------------------------------------------

/// The iteration-heavy kernel of `crates/bench/benches/interp.rs`: every
/// thread runs a `trips`-trip escape loop over its own f64 cell, from `z0`.
fn escape_kernel(trips: u32, z0: f64) -> String {
    format!(
        ".kernel escape\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    mov r2, 8\n    \
         mul.i64 r2, r0, r2\n    add.i64 r2, r2, r1\n    ld.f64 r3, [r2]\n    mov.f64 r4, {z0:?}\n    \
         mov r5, 0\n    mov r6, 1\n    mov r7, {trips}\n    bra loop\nloop:\n    \
         mul.f64 r4, r4, r4\n    add.f64 r4, r4, r3\n    add.i64 r5, r5, r6\n    \
         setp.lt.i64 p0, r5, r7\n    @p0 bra loop, done\ndone:\n    st.i64 [r2], r5\n    ret\n"
    )
}

/// A 64-trip loop whose body is eight instructions of one class, over one
/// 8-byte cell per thread. `prologue` runs once; `body` is the loop body.
fn class_kernel(name: &str, prologue: &str, body: &str) -> KernelProgram {
    let text = format!(
        ".kernel {name}\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    mov r2, 8\n    \
         mul.i64 r2, r0, r2\n    add.i64 r2, r2, r1\n    mov r5, 0\n    mov r6, 1\n    \
         mov r7, 64\n{prologue}    bra loop\nloop:\n{body}    add.i64 r5, r5, r6\n    \
         setp.lt.i64 p0, r5, r7\n    @p0 bra loop, done\ndone:\n    ret\n"
    );
    asm::parse(&text).unwrap_or_else(|e| panic!("{name} does not assemble: {e}\n{text}"))
}

fn class_kernels() -> Vec<(&'static str, KernelProgram)> {
    let fp_body =
        |ty: &str| format!("    mul.{ty} r3, r3, r4\n    add.{ty} r3, r3, r4\n").repeat(4);
    let fp64_pro = "    ld.f64 r3, [r2]\n    mov.f64 r4, 1.0001\n";
    let fp32_pro = format!("{fp64_pro}    cvt.f32.f64 r3, r3\n    cvt.f32.f64 r4, r4\n");
    let (fp32_body, fp64_body) = (fp_body("f32"), fp_body("f64"));
    vec![
        ("fp32", class_kernel("class_fp32", &fp32_pro, &fp32_body)),
        ("fp64", class_kernel("class_fp64", fp64_pro, &fp64_body)),
        (
            "int",
            class_kernel(
                "class_int",
                "    ld.i64 r3, [r2]\n    mov r4, 3\n",
                &"    mul.i64 r3, r3, r4\n    xor.i64 r3, r3, r5\n".repeat(4),
            ),
        ),
        (
            "ldst",
            class_kernel("class_ldst", "", &"    ld.i64 r3, [r2]\n    st.i64 [r2], r3\n".repeat(4)),
        ),
        (
            // Odd and even lanes take different arms every trip.
            "branch_div",
            class_kernel(
                "class_branch",
                "    mov r8, 2\n    rem.i64 r8, r0, r8\n    mov r9, 0\n    mov r3, 0\n    \
                 setp.eq.i64 p1, r8, r9\n",
                "    @p1 bra even, odd\neven:\n    add.i64 r3, r3, r6\n    bra join\nodd:\n    \
                 sub.i64 r3, r3, r6\n    bra join\njoin:\n",
            ),
        ),
    ]
}

fn seeded_cells(b: &Bench, threads: u64) -> Memory {
    let mut mem = Memory::new((threads * 8) as usize);
    let mut state = b.seed ^ 0x5EED;
    for t in 0..threads {
        let jitter = (splitmix64(&mut state) % 1000) as f64 * 1e-9;
        mem.write_f64(t * 8, -0.1 - t as f64 * 1e-6 - jitter).expect("cell in range");
    }
    mem
}

fn sptx(b: &mut Bench) {
    let text = escape_kernel(64, 0.0);
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(asm::parse(std::hint::black_box(&text)).expect("kernel parses"));
        })
    });
    b.record("sptx.asm.parse_ns", "ns", ns);

    // Decode is cached process-wide by content, so every sample assembles a
    // program no one has run yet (a fresh immediate) and takes its first run
    // minus its second.
    let interp = Interpreter::new().with_workers(1).with_tier(Tier::Warp);
    let one_warp = LaunchConfig::linear(1, 32);
    let mut mem = seeded_cells(b, 32);
    let samples = (BATCHES * 4) as u32;
    let cold: Vec<f64> = (0..samples)
        .map(|i| {
            let z0 = 1.0 + f64::from((b.seed % 1_000) as u32 * samples + i);
            let program = asm::parse(&escape_kernel(4, z0)).expect("kernel parses");
            let mut run = || {
                let started = Instant::now();
                interp.run(&program, &one_warp, &[ParamValue::Ptr(0)], &mut mem).expect("runs");
                started.elapsed().as_nanos() as f64
            };
            let first = run();
            first - run()
        })
        .collect();
    b.record("sptx.decode.cold_ns", "ns", median(&cold));

    let trivial = asm::parse(".kernel trivial\nentry:\n    ret\n").expect("kernel parses");
    let ns = b.ns_per_op(|n| {
        time_n(n, || {
            std::hint::black_box(interp.run(&trivial, &one_warp, &[], &mut mem).expect("runs"));
        })
    });
    b.record("sptx.launch.fixed_ns", "ns", ns);

    // Interpreter throughput: 64 CTAs × 64 threads of the escape kernel.
    let program = asm::parse(&escape_kernel(64, 0.0)).expect("kernel parses");
    let (grid, block) = (64u32, 64u32);
    let cfg = LaunchConfig::linear(grid, block);
    let mut rates = Vec::new();
    for (label, tier, workers) in
        [("scalar_w1", Tier::Scalar, 1), ("warp_w1", Tier::Warp, 1), ("warp_w2", Tier::Warp, 2)]
    {
        let interp = Interpreter::new().with_workers(workers).with_tier(tier);
        let mut mem = seeded_cells(b, u64::from(grid * block));
        let mut instructions = 0u64;
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                let profile =
                    interp.run(&program, &cfg, &[ParamValue::Ptr(0)], &mut mem).expect("runs");
                instructions = profile.counts.total();
            })
        });
        let rate = instructions as f64 / (ns * 1e-9);
        b.record(format!("sptx.interp.instr_per_s.{label}"), "1/s", rate);
        rates.push(rate);
    }
    b.record("sptx.interp.tier_speedup", "x", rates[1] / rates[0]);
    b.record("sptx.interp.w2_speedup", "x", rates[2] / rates[1]);

    let interp = Interpreter::new().with_workers(1).with_tier(Tier::Warp);
    for (class, program) in class_kernels() {
        let mut mem = seeded_cells(b, u64::from(grid * block));
        let mut instructions = 0u64;
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                let profile =
                    interp.run(&program, &cfg, &[ParamValue::Ptr(0)], &mut mem).expect("runs");
                instructions = profile.counts.total();
            })
        });
        b.record(format!("sptx.warp.ns_per_instr.{class}"), "ns", ns / instructions as f64);
    }
}

// --- fleet / fault -------------------------------------------------------------------

/// A journal of `entries` mutating requests: one malloc, then uploads.
fn journal_requests(b: &Bench, entries: usize) -> Vec<Request> {
    let data = b.bytes(5, 256);
    std::iter::once(Request::Malloc { bytes: 256 })
        .chain((1..entries).map(|_| Request::MemcpyH2D {
            handle: 1,
            data: data.clone(),
            stream: 0,
        }))
        .collect()
}

fn fleet_and_fault(b: &mut Bench) {
    for entries in [16usize, 1024] {
        let fleet = Fleet::new(FleetConfig::new(2).with_steal_interval(0), fleet_registry())
            .expect("a valid configuration");
        let vp = VpId(0);
        let home = fleet.admit(vp).expect("fresh fleet");
        for request in journal_requests(b, entries) {
            fleet.submit(vp, request).expect("capacity for one request");
            fleet.wait(vp).expect("request completes");
        }
        let mut at = home;
        let ns = b.ns_per_op(|n| {
            time_n(n, || {
                at = 1 - at;
                fleet.migrate(vp, at).expect("idle vp migrates");
            })
        });
        let stats = fleet.shutdown().stats;
        assert_eq!(stats.replay_failures, 0, "migration replays must succeed");
        b.record(format!("fleet.migrate_ns.j{entries}"), "ns", ns);
    }

    const ENTRIES: usize = 1024;
    let mut journal = VpJournal::default();
    let mut recorder = HostRuntime::new(GpuArch::quadro_4000(), fleet_registry());
    for (seq, request) in journal_requests(b, ENTRIES).into_iter().enumerate() {
        let response = recorder.process(&envelope(seq as u64, request.clone())).body;
        journal.record(seq as u64, &request, &response);
    }
    assert_eq!(journal.len(), ENTRIES);
    let ns = b.ns_per_op(|n| {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let mut survivor = HostRuntime::new(GpuArch::quadro_4000(), fleet_registry());
            let started = Instant::now();
            let map = replay_journal(&journal, |seq, request| {
                survivor.process_replay(&envelope(seq, request.clone())).body
            });
            total += started.elapsed();
            std::hint::black_box(map.expect("replay succeeds"));
        }
        total
    });
    b.record("fault.journal.replay_ns_per_entry", "ns", ns / ENTRIES as f64);
}

// --- telemetry -----------------------------------------------------------------------

fn telemetry(b: &mut Bench) {
    let telemetry = sigmavp_telemetry::install();
    let recorder = sigmavp_telemetry::recorder();
    let ns = b.ns_per_op(|n| time_n(n, || recorder.count("bench.layers.count", 1)));
    b.record("telemetry.count_ns", "ns", ns);
    // The span ring is bounded: drain it (untimed) so pushes never hit a full ring.
    let ns = b.ns_per_op(|n| {
        let mut total = Duration::ZERO;
        let mut left = n;
        while left > 0 {
            let chunk = left.min(1 << 14);
            total += time_n(chunk, || {
                recorder.span(TimeDomain::Wall, Lane::Dispatcher, "bench span", 1.0, 1e-6);
            });
            telemetry.drain_events();
            left -= chunk;
        }
        total
    });
    b.record("telemetry.span_ns", "ns", ns);
    sigmavp_telemetry::uninstall();
}

/// Run every micro-benchmark with `budget_s` seconds per entry.
pub fn run(seed: u64, budget_s: f64) -> Vec<Entry> {
    let mut b = Bench { budget_s, seed, entries: Vec::new() };
    ipc(&mut b);
    sched(&mut b);
    host_and_device(&mut b);
    sptx(&mut b);
    fleet_and_fault(&mut b);
    telemetry(&mut b);
    b.entries
}

/// Names and units of everything [`run`] reports, in order.
pub const NAMES: [(&str, &str); 40] = [
    ("ipc.codec.req_ns", "ns"),
    ("ipc.codec.resp_ns", "ns"),
    ("ipc.codec.bulk_bytes_per_s", "B/s"),
    ("ipc.transport.same_thread_ns", "ns"),
    ("ipc.transport.handoff_ns", "ns"),
    ("ipc.queue.push_pop_ns", "ns"),
    ("sched.plan.ns_per_job.w8", "ns"),
    ("sched.plan.ns_per_job.w256", "ns"),
    ("sched.pass.dep_order.ns_per_job", "ns"),
    ("sched.pass.interleave.ns_per_job", "ns"),
    ("sched.pass.coalesce.ns_per_job", "ns"),
    ("sched.pass.wave_pack.ns_per_job", "ns"),
    ("core.plan_device.ns_per_record", "ns"),
    ("gpu.engine.simulate_ns_per_op", "ns"),
    ("core.host.process_ns.malloc", "ns"),
    ("core.host.process_ns.free", "ns"),
    ("core.host.process_ns.h2d", "ns"),
    ("core.host.process_ns.d2h", "ns"),
    ("core.host.process_ns.launch", "ns"),
    ("gpu.device.launch_ns", "ns"),
    ("sptx.launch.one_cta_ns", "ns"),
    ("gpu.device.memcpy_bytes_per_s", "B/s"),
    ("sptx.asm.parse_ns", "ns"),
    ("sptx.decode.cold_ns", "ns"),
    ("sptx.launch.fixed_ns", "ns"),
    ("sptx.interp.instr_per_s.scalar_w1", "1/s"),
    ("sptx.interp.instr_per_s.warp_w1", "1/s"),
    ("sptx.interp.instr_per_s.warp_w2", "1/s"),
    ("sptx.interp.tier_speedup", "x"),
    ("sptx.interp.w2_speedup", "x"),
    ("sptx.warp.ns_per_instr.fp32", "ns"),
    ("sptx.warp.ns_per_instr.fp64", "ns"),
    ("sptx.warp.ns_per_instr.int", "ns"),
    ("sptx.warp.ns_per_instr.ldst", "ns"),
    ("sptx.warp.ns_per_instr.branch_div", "ns"),
    ("fleet.migrate_ns.j16", "ns"),
    ("fleet.migrate_ns.j1024", "ns"),
    ("fault.journal.replay_ns_per_entry", "ns"),
    ("telemetry.count_ns", "ns"),
    ("telemetry.span_ns", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every micro-benchmark runs (at a token budget) and the table of names
    /// the catalogue is built from matches what `run` reports, in order.
    #[test]
    fn run_reports_exactly_the_listed_entries() {
        let entries = run(1, 0.003);
        let reported: Vec<(&str, &str)> =
            entries.iter().map(|e| (e.name.as_str(), e.unit)).collect();
        assert_eq!(reported, NAMES);
        for entry in &entries {
            assert!(entry.value.is_finite(), "{} = {}", entry.name, entry.value);
        }
    }
}
