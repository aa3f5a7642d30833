//! The application abstraction: how a guest workload runs against any GPU backend.

use sigmavp_ipc::message::WireParam;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::cuda::{CudaContext, GuestBuffer};
use sigmavp_vp::error::VpError;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::service::GpuService;

/// Static characteristics of an application, used by the multiplexer (coalescing
/// eligibility) and by the experiment harness (speedup-limiter analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppTraits {
    /// Whether ΣVP may coalesce this app's kernels across VPs. The paper notes
    /// that convolutionSeparable, dct8x8, SobelFilter, MonteCarlo, nbody and
    /// smokeParticles do not benefit, "mostly due to the way they access and
    /// manage the memory".
    pub coalescible: bool,
    /// Bytes of file I/O per run (never accelerated by ΣVP).
    pub file_io_bytes: u64,
    /// Pixels rendered through software OpenGL per run (never accelerated).
    pub gl_pixels: u64,
}

impl AppTraits {
    /// A pure-CUDA, coalescible application with no host-service traffic.
    pub fn pure_cuda() -> Self {
        AppTraits { coalescible: true, file_io_bytes: 0, gl_pixels: 0 }
    }
}

/// The execution environment an application runs in: its VP plus whichever GPU
/// backend (emulation or ΣVP multiplexing) the scenario installed.
pub struct AppEnv<'a> {
    /// The virtual platform whose clock accumulates the run's simulated cost.
    pub vp: &'a mut VirtualPlatform,
    /// The GPU backend.
    pub gpu: &'a mut dyn GpuService,
}

impl<'a> AppEnv<'a> {
    /// Create an environment.
    pub fn new(vp: &'a mut VirtualPlatform, gpu: &'a mut dyn GpuService) -> Self {
        AppEnv { vp, gpu }
    }

    /// Open the CUDA-runtime-like user library over this environment.
    pub fn cuda(&mut self) -> CudaContext<'_> {
        CudaContext::new(&mut *self.vp, &mut *self.gpu)
    }
}

/// A guest application from the benchmark suite.
///
/// Implementations must be *backend-agnostic*: `run_once` only talks to the GPU
/// through [`AppEnv::cuda`], so the identical code runs over software emulation and
/// over ΣVP — the paper's binary-compatibility property.
pub trait Application {
    /// The application's name (matches the CUDA SDK sample it mirrors).
    fn name(&self) -> &str;

    /// The kernels this app launches; the scenario registers them with every
    /// backend before running.
    fn kernels(&self) -> Vec<KernelProgram>;

    /// Static characteristics.
    fn characteristics(&self) -> AppTraits;

    /// Run one iteration: generate inputs, drive the GPU, validate the results.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::Validation`] when the GPU results do not match the
    /// reference computation, or any backend error.
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError>;
}

/// Allocate a device buffer and upload `data` into it.
///
/// # Errors
///
/// Propagates backend allocation/transfer failures.
pub fn upload(cuda: &mut CudaContext<'_>, data: &[u8]) -> Result<GuestBuffer, VpError> {
    let buf = cuda.malloc(data.len() as u64)?;
    cuda.memcpy_h2d(buf, data)?;
    Ok(buf)
}

/// Download a device buffer's full contents.
///
/// # Errors
///
/// Propagates backend transfer failures.
pub fn download(cuda: &mut CudaContext<'_>, buf: GuestBuffer) -> Result<Vec<u8>, VpError> {
    let mut out = vec![0u8; buf.len() as usize];
    cuda.memcpy_d2h(&mut out, buf)?;
    Ok(out)
}

/// Build a [`VpError::Validation`] for an application.
pub fn validation_error(app: &str, message: impl Into<String>) -> VpError {
    VpError::Validation { app: app.to_string(), message: message.into() }
}

/// Check a float comparison and produce a validation error above `tolerance`.
///
/// # Errors
///
/// Returns [`VpError::Validation`] when the maximum relative error exceeds
/// `tolerance`.
pub fn check_close(
    app: &str,
    got: &[f32],
    expected: &[f32],
    tolerance: f64,
) -> Result<(), VpError> {
    if got.len() != expected.len() {
        return Err(validation_error(
            app,
            format!("length mismatch: got {}, expected {}", got.len(), expected.len()),
        ));
    }
    let err = crate::util::max_relative_error(got, expected);
    if err > tolerance {
        return Err(validation_error(
            app,
            format!("max relative error {err:.3e} > {tolerance:.1e}"),
        ));
    }
    Ok(())
}

/// Check exact equality of integer outputs.
///
/// # Errors
///
/// Returns [`VpError::Validation`] on the first mismatch.
pub fn check_equal_i64(app: &str, got: &[i64], expected: &[i64]) -> Result<(), VpError> {
    if got.len() != expected.len() {
        return Err(validation_error(
            app,
            format!("length mismatch: got {}, expected {}", got.len(), expected.len()),
        ));
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if g != e {
            return Err(validation_error(app, format!("index {i}: got {g}, expected {e}")));
        }
    }
    Ok(())
}

/// Shorthand for a buffer kernel parameter.
pub fn p(buf: GuestBuffer) -> WireParam {
    buf.param()
}

/// Shorthand for an integer kernel parameter.
pub fn pi(v: i64) -> WireParam {
    WireParam::I64(v)
}

/// Shorthand for a float kernel parameter.
pub fn pf(v: f64) -> WireParam {
    WireParam::F64(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_close_accepts_within_tolerance() {
        assert!(check_close("t", &[1.0, 2.0], &[1.0, 2.000001], 1e-4).is_ok());
        assert!(check_close("t", &[1.0], &[1.2], 1e-4).is_err());
        assert!(check_close("t", &[1.0], &[1.0, 2.0], 1e-4).is_err());
    }

    #[test]
    fn check_equal_reports_index() {
        let err = check_equal_i64("t", &[1, 2, 3], &[1, 9, 3]).unwrap_err();
        assert!(err.to_string().contains("index 1"));
    }

    #[test]
    fn traits_default() {
        let t = AppTraits::pure_cuda();
        assert!(t.coalescible);
        assert_eq!(t.file_io_bytes, 0);
        assert_eq!(t.gl_pixels, 0);
    }
}
