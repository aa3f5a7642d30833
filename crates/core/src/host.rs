//! The host-side ΣVP runtime: Job Dispatcher plus record keeping.
//!
//! "The Job Dispatcher links the requests to the GPU driver library on the host
//! machine and invokes the physical GPU instructions based on the requests in the
//! Job Queue" (paper, Section 2). [`HostRuntime::process`] is that dispatcher: it
//! receives decoded request [`Envelope`]s, executes them on the simulated host
//! [`GpuDevice`] (functionally — real data moves), and emits response envelopes.
//! Every device-touching request also appends a [`JobRecord`] so the scenario
//! engine can replay the job stream through the two-engine timeline model with and
//! without the re-scheduler's optimizations.

use sigmavp_gpu::alloc::DeviceBuffer;
use sigmavp_gpu::{GpuArch, GpuDevice};
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId, WireParam};
use sigmavp_sptx::interp::{LaunchConfig, ParamValue};
use sigmavp_sptx::IntMap;
use sigmavp_vp::error::VpError;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::service::GpuService;

/// What one dispatched job did on the device.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// Host-to-device transfer.
    H2d {
        /// Bytes moved.
        bytes: u64,
        /// Guest stream (0 = default).
        stream: u32,
    },
    /// Device-to-host transfer.
    D2h {
        /// Bytes moved.
        bytes: u64,
        /// Guest stream (0 = default).
        stream: u32,
    },
    /// A kernel launch.
    Kernel {
        /// Kernel name.
        name: String,
        /// Grid size in blocks.
        grid_dim: u32,
        /// Block size in threads.
        block_dim: u32,
        /// Fixed launch overhead included in `duration_s`.
        launch_overhead_s: f64,
        /// Waves the grid occupied on the host device.
        waves: u64,
        /// Guest stream the launch belongs to (0 = default).
        stream: u32,
    },
}

/// One device-touching job, in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Originating VP.
    pub vp: VpId,
    /// The VP's request sequence number.
    pub seq: u64,
    /// What ran.
    pub kind: RecordKind,
    /// Device time the job took, in simulated seconds.
    pub duration_s: f64,
    /// The guest's simulated clock when it sent the request (from
    /// [`Envelope::sent_at_s`](sigmavp_ipc::message::Envelope::sent_at_s)) —
    /// lets the host reconstruct guest-observed queueing delay.
    pub sent_at_s: f64,
}

/// The host-side runtime: device, kernel registry, handle table and job log.
#[derive(Debug)]
pub struct HostRuntime {
    device: GpuDevice,
    registry: KernelRegistry,
    handles: IntMap<u64, DeviceBuffer>,
    next_handle: u64,
    records: Vec<JobRecord>,
    recording: bool,
}

impl HostRuntime {
    /// A runtime over a host GPU of architecture `arch` serving kernels from
    /// `registry`.
    pub fn new(arch: GpuArch, registry: KernelRegistry) -> Self {
        HostRuntime {
            device: GpuDevice::new(arch),
            registry,
            handles: IntMap::default(),
            next_handle: 1,
            records: Vec::new(),
            recording: true,
        }
    }

    /// The underlying device (for profiler-log access).
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Set the block-parallel worker count for kernel launches on this
    /// runtime's device (`0` = one worker per core, `1` = sequential).
    pub fn set_workers(&mut self, workers: u32) {
        self.device.set_workers(workers);
    }

    /// The job log so far, in dispatch order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of device buffers currently allocated (leak accounting: a
    /// relocation must leave none behind, DESIGN.md §12).
    pub fn live_handles(&self) -> usize {
        self.handles.len()
    }

    /// Drain and return the job log.
    pub fn take_records(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.records)
    }

    /// Dispatch one request, returning the response. All failures are reported to
    /// the guest as [`Response::Error`] (the host never panics on guest input).
    pub fn process(&mut self, envelope: &Envelope) -> ResponseEnvelope {
        let body = match self.dispatch(envelope) {
            Ok(r) => r,
            Err(message) => Response::Error { message },
        };
        ResponseEnvelope { vp: envelope.vp, seq: envelope.seq, sent_at_s: envelope.sent_at_s, body }
    }

    /// Dispatch a *replayed* request: executes like [`HostRuntime::process`]
    /// but appends no [`JobRecord`]s, so reconstructing a migrated VP's device
    /// state after a failover does not double-count its jobs in the timeline.
    pub fn process_replay(&mut self, envelope: &Envelope) -> ResponseEnvelope {
        self.recording = false;
        let response = self.process(envelope);
        self.recording = true;
        response
    }

    fn dispatch(&mut self, envelope: &Envelope) -> Result<Response, String> {
        match &envelope.body {
            Request::Malloc { bytes } => {
                let buf = self.device.malloc(*bytes).map_err(|e| e.to_string())?;
                let handle = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(handle, buf);
                Ok(Response::Malloc { handle })
            }
            Request::Free { handle } => {
                let buf = self
                    .handles
                    .remove(handle)
                    .ok_or_else(|| format!("unknown handle {handle}"))?;
                self.device.free(buf).map_err(|e| e.to_string())?;
                Ok(Response::Done)
            }
            Request::MemcpyH2D { handle, data, stream } => {
                let buf = self.buffer(*handle)?;
                let t = self.device.memcpy_h2d(buf, data).map_err(|e| e.to_string())?;
                if self.recording {
                    self.records.push(JobRecord {
                        vp: envelope.vp,
                        seq: envelope.seq,
                        sent_at_s: envelope.sent_at_s,
                        kind: RecordKind::H2d { bytes: data.len() as u64, stream: *stream },
                        duration_s: t,
                    });
                }
                Ok(Response::Done)
            }
            Request::MemcpyD2H { handle, len, stream } => {
                let buf = self.buffer(*handle)?;
                if buf.len() != *len {
                    return Err(format!("buffer is {} bytes, requested {len}", buf.len()));
                }
                let mut out = vec![0u8; *len as usize];
                let t = self.device.memcpy_d2h(&mut out, buf).map_err(|e| e.to_string())?;
                if self.recording {
                    self.records.push(JobRecord {
                        vp: envelope.vp,
                        seq: envelope.seq,
                        sent_at_s: envelope.sent_at_s,
                        kind: RecordKind::D2h { bytes: *len, stream: *stream },
                        duration_s: t,
                    });
                }
                Ok(Response::Data { data: out })
            }
            Request::Launch { kernel, grid_dim, block_dim, params, stream, .. } => {
                let program = self.registry.get(kernel).map_err(|e| e.to_string())?;
                let resolved = self.resolve(params)?;
                let cfg = LaunchConfig::linear(*grid_dim, *block_dim);
                let run =
                    self.device.launch(&program, &cfg, &resolved).map_err(|e| e.to_string())?;
                if self.recording {
                    self.records.push(JobRecord {
                        vp: envelope.vp,
                        seq: envelope.seq,
                        sent_at_s: envelope.sent_at_s,
                        kind: RecordKind::Kernel {
                            name: kernel.clone(),
                            grid_dim: *grid_dim,
                            block_dim: *block_dim,
                            launch_overhead_s: self.device.arch().launch_overhead_us * 1e-6,
                            waves: run.cost.waves,
                            stream: *stream,
                        },
                        duration_s: run.cost.time_s,
                    });
                }
                Ok(Response::Launched { device_time_s: run.cost.time_s })
            }
            Request::Synchronize => Ok(Response::Done),
        }
    }

    fn buffer(&self, handle: u64) -> Result<DeviceBuffer, String> {
        self.handles.get(&handle).copied().ok_or_else(|| format!("unknown handle {handle}"))
    }

    fn resolve(&self, params: &[WireParam]) -> Result<Vec<ParamValue>, String> {
        params
            .iter()
            .map(|p| match p {
                WireParam::Buffer(h) => self.buffer(*h).map(|b| ParamValue::Ptr(b.addr())),
                WireParam::F64(v) => Ok(ParamValue::F64(*v)),
                WireParam::I64(v) => Ok(ParamValue::I64(*v)),
            })
            .collect()
    }

    /// Serve one request for the native process that owns this runtime.
    fn native(&mut self, body: Request) -> Result<Response, VpError> {
        let envelope = Envelope {
            vp: VpId(0),
            seq: 0,
            sent_at_s: 0.0,
            deadline_s: Envelope::NO_DEADLINE,
            body,
        };
        match self.process(&envelope).body {
            Response::Error { message } => Err(VpError::Device(message)),
            response => Ok(response),
        }
    }
}

/// A guest's error for a response of the wrong kind.
pub(crate) fn unexpected(response: Response) -> VpError {
    VpError::Device(format!("unexpected response {response:?}"))
}

/// A native process driving its own GPU — Table 1's first row, the profiler
/// harvest of Figs. 12–13. It is not a ΣVP guest: calls go straight to
/// [`HostRuntime::process`], with no codec, no transport and no dispatcher,
/// and block only for device time (a synchronous copy for its copy time, a
/// synchronous launch for its kernel time).
impl GpuService for HostRuntime {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.native(Request::Malloc { bytes })? {
            Response::Malloc { handle } => Ok((handle, 0.0)),
            other => Err(unexpected(other)),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        self.native(Request::Free { handle }).map(|_| 0.0)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.memcpy_h2d_async(0, handle, data)?;
        Ok(self.device.arch().copy_time_s(data.len() as u64))
    }

    fn memcpy_h2d_async(&mut self, stream: u32, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.native(Request::MemcpyH2D { handle, data: data.to_vec(), stream }).map(|_| 0.0)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        self.memcpy_d2h_async(0, handle, out)?;
        Ok(self.device.arch().copy_time_s(out.len() as u64))
    }

    fn memcpy_d2h_async(
        &mut self,
        stream: u32,
        handle: u64,
        out: &mut [u8],
    ) -> Result<f64, VpError> {
        // The runtime refuses a length that differs from the buffer's.
        match self.native(Request::MemcpyD2H { handle, len: out.len() as u64, stream })? {
            Response::Data { data } => {
                out.copy_from_slice(&data);
                Ok(0.0)
            }
            other => Err(unexpected(other)),
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
        self.launch_on_stream(0, kernel, grid_dim, block_dim, params, sync)
    }

    fn launch_on_stream(
        &mut self,
        stream: u32,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        let launch = Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream,
        };
        match self.native(launch)? {
            Response::Launched { device_time_s } => Ok(if sync { device_time_s } else { 0.0 }),
            other => Err(unexpected(other)),
        }
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        self.native(Request::Synchronize).map(|_| 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_sptx::asm;

    fn runtime() -> HostRuntime {
        let scale = asm::parse(
            ".kernel scale\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    ld.f32 r2, [r1 + r0]\n    add.f32 r2, r2, r2\n    st.f32 [r1 + r0], r2\n    ret\n",
        )
        .unwrap();
        HostRuntime::new(GpuArch::quadro_4000(), [scale].into_iter().collect())
    }

    fn env(seq: u64, body: Request) -> Envelope {
        Envelope { vp: VpId(0), seq, sent_at_s: 0.0, deadline_s: f64::INFINITY, body }
    }

    #[test]
    fn full_request_cycle() {
        let mut rt = runtime();
        let r = rt.process(&env(0, Request::Malloc { bytes: 64 * 4 }));
        let Response::Malloc { handle } = r.body else { panic!("expected malloc response") };

        let data: Vec<u8> = (0..64u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let r = rt.process(&env(1, Request::MemcpyH2D { handle, data, stream: 0 }));
        assert_eq!(r.body, Response::Done);

        let r = rt.process(&env(
            2,
            Request::Launch {
                kernel: "scale".into(),
                grid_dim: 1,
                block_dim: 64,
                params: vec![WireParam::Buffer(handle)],
                sync: true,
                stream: 0,
            },
        ));
        let Response::Launched { device_time_s } = r.body else {
            panic!("expected launch response")
        };
        assert!(device_time_s > 0.0);

        let r = rt.process(&env(3, Request::MemcpyD2H { handle, len: 64 * 4, stream: 0 }));
        let Response::Data { data } = r.body else { panic!("expected data response") };
        assert_eq!(f32::from_le_bytes(data[4..8].try_into().unwrap()), 2.0);

        let r = rt.process(&env(4, Request::Free { handle }));
        assert_eq!(r.body, Response::Done);

        // Three device-touching records: h2d, kernel, d2h.
        assert_eq!(rt.records().len(), 3);
        assert!(matches!(rt.records()[1].kind, RecordKind::Kernel { .. }));
    }

    #[test]
    fn guest_errors_become_error_responses() {
        let mut rt = runtime();
        let r = rt.process(&env(0, Request::Free { handle: 99 }));
        assert!(matches!(r.body, Response::Error { .. }));
        let r = rt.process(&env(
            1,
            Request::Launch {
                kernel: "nope".into(),
                grid_dim: 1,
                block_dim: 1,
                params: vec![],
                sync: true,
                stream: 0,
            },
        ));
        assert!(matches!(r.body, Response::Error { .. }));
    }

    #[test]
    fn handles_are_per_runtime_and_stable() {
        let mut rt = runtime();
        let Response::Malloc { handle: h1 } =
            rt.process(&env(0, Request::Malloc { bytes: 128 })).body
        else {
            panic!()
        };
        let Response::Malloc { handle: h2 } =
            rt.process(&env(1, Request::Malloc { bytes: 128 })).body
        else {
            panic!()
        };
        assert_ne!(h1, h2);
    }

    #[test]
    fn d2h_size_mismatch_is_rejected() {
        let mut rt = runtime();
        let Response::Malloc { handle } = rt.process(&env(0, Request::Malloc { bytes: 64 })).body
        else {
            panic!()
        };
        let r = rt.process(&env(1, Request::MemcpyD2H { handle, len: 128, stream: 0 }));
        assert!(matches!(r.body, Response::Error { .. }));
    }
}
