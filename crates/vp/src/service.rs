//! The `GpuService` abstraction: how guest code reaches a GPU implementation.
//!
//! The GPU user library (see [`cuda`](crate::cuda)) is backend-agnostic — this is
//! the property that lets ΣVP swap the slow emulation path (Fig. 1a) for the fast
//! host-GPU multiplexing path (Fig. 1b) "without requiring any change to the
//! original GPU-optimized application code". Backends implement [`GpuService`]:
//!
//! * [`emulation::EmulatedGpu`](crate::emulation::EmulatedGpu) — Mesa-style software
//!   emulation in this crate;
//! * the forwarding backend of every ΣVP guest in the `sigmavp` core crate's
//!   dispatcher — each call sent through the IPC manager to the multiplexed
//!   host GPU;
//! * `HostRuntime` in the same crate — a native process driving its own GPU,
//!   with no VP and no transport.
//!
//! Every method returns the simulated time, in seconds, that the *calling VP is
//! blocked* by the operation; asynchronous launches return only the submission cost.

use sigmavp_ipc::message::WireParam;

use crate::error::VpError;

/// A GPU implementation as seen from inside the guest.
///
/// The trait is object-safe: the user library holds a `&mut dyn GpuService`.
pub trait GpuService {
    /// Allocate `bytes` of device memory; returns `(handle, blocked_time_s)`.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::Device`] when the device cannot satisfy the allocation.
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError>;

    /// Free a device buffer; returns the blocked time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::UnknownHandle`] for stale handles.
    fn free(&mut self, handle: u64) -> Result<f64, VpError>;

    /// Copy guest data into a device buffer; returns the blocked time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::UnknownHandle`] or [`VpError::SizeMismatch`].
    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError>;

    /// Copy a device buffer into guest memory; returns the blocked time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::UnknownHandle`] or [`VpError::SizeMismatch`].
    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError>;

    /// Launch a kernel. With `sync == true` the returned time includes kernel
    /// completion; with `sync == false` it is only the submission overhead and the
    /// kernel completes by the time a later [`GpuService::synchronize`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::UnknownKernel`], [`VpError::UnknownHandle`], or
    /// [`VpError::Device`] when the kernel faults.
    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError>;

    /// Asynchronous host-to-device copy on a guest stream: the VP blocks only for
    /// submission; completion is ordered by the stream and awaited by
    /// [`GpuService::synchronize`]. The default implementation ignores the stream
    /// and performs a synchronous copy.
    ///
    /// # Errors
    ///
    /// Same as [`GpuService::memcpy_h2d`].
    fn memcpy_h2d_async(&mut self, stream: u32, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let _ = stream;
        self.memcpy_h2d(handle, data)
    }

    /// Asynchronous device-to-host copy on a guest stream; see
    /// [`GpuService::memcpy_h2d_async`].
    ///
    /// # Errors
    ///
    /// Same as [`GpuService::memcpy_d2h`].
    fn memcpy_d2h_async(
        &mut self,
        stream: u32,
        handle: u64,
        out: &mut [u8],
    ) -> Result<f64, VpError> {
        let _ = stream;
        self.memcpy_d2h(handle, out)
    }

    /// Launch a kernel on a specific guest stream. Operations on different streams
    /// of the same VP may overlap on the device (the asynchronous-invocation case
    /// of the paper's Fig. 4a). The default implementation ignores the stream and
    /// delegates to [`GpuService::launch`]; backends with stream-aware timelines
    /// override it.
    ///
    /// # Errors
    ///
    /// Same as [`GpuService::launch`].
    fn launch_on_stream(
        &mut self,
        stream: u32,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        let _ = stream;
        self.launch(kernel, grid_dim, block_dim, params, sync)
    }

    /// Wait for all outstanding asynchronous work; returns the blocked time in
    /// seconds.
    ///
    /// # Errors
    ///
    /// Surfaces any deferred error from asynchronous launches.
    fn synchronize(&mut self) -> Result<f64, VpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must remain object-safe (the user library stores `dyn GpuService`).
    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_s: &mut dyn GpuService) {}
    }

    /// A minimal in-memory fake proving the trait is implementable outside the
    /// crate's own backends.
    struct NullService;

    impl GpuService for NullService {
        fn malloc(&mut self, _bytes: u64) -> Result<(u64, f64), VpError> {
            Ok((1, 1e-6))
        }
        fn free(&mut self, _handle: u64) -> Result<f64, VpError> {
            Ok(1e-6)
        }
        fn memcpy_h2d(&mut self, _handle: u64, _data: &[u8]) -> Result<f64, VpError> {
            Ok(1e-6)
        }
        fn memcpy_d2h(&mut self, _handle: u64, _out: &mut [u8]) -> Result<f64, VpError> {
            Ok(1e-6)
        }
        fn launch(
            &mut self,
            _kernel: &str,
            _grid: u32,
            _block: u32,
            _params: &[WireParam],
            _sync: bool,
        ) -> Result<f64, VpError> {
            Ok(1e-6)
        }
        fn synchronize(&mut self) -> Result<f64, VpError> {
            Ok(0.0)
        }
    }

    #[test]
    fn fake_service_flows() {
        let mut s = NullService;
        let svc: &mut dyn GpuService = &mut s;
        let (h, t) = svc.malloc(64).unwrap();
        assert_eq!(h, 1);
        assert!(t > 0.0);
        assert!(svc.synchronize().unwrap() >= 0.0);
    }
}
