//! Scenario guests: not part of the Fig. 11 suite. They position VPs against
//! each other with wall-clock stalls so the dispatcher's sync-window and
//! liveness paths (quorum flush, window timeout, hung-VP watchdog) can be
//! driven from a live fleet — by `sigmavp::dispatcher`'s tests and by the
//! audit's scenario table.

use std::time::Duration;

use crate::app::{download, p, pi, upload, AppEnv, AppTraits, Application};
use crate::kernels;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::error::VpError;

fn nap(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// A vector-add guest with wall-clock stalls around its synchronous launches.
#[derive(Debug, Clone)]
pub struct StaggeredAdd {
    /// Elements per vector.
    pub n: u64,
    /// Synchronous launches issued.
    pub launches: u32,
    /// Stall before the first launch: staggers arrival against other VPs.
    pub pre_ms: u64,
    /// Stall between launches: a VP that wedges mid-run and later wakes.
    pub mid_ms: u64,
    /// Stall after the last request, still connected: pins the quorum
    /// denominator so a later partial flush stays a *quorum* flush, not a
    /// lone-survivor full one.
    pub post_ms: u64,
}

impl Application for StaggeredAdd {
    fn name(&self) -> &str {
        "staggeredAdd"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        vec![kernels::vector_add()]
    }

    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let n = self.n;
        let ones = vec![1u8; (n * 4) as usize];
        let mut cuda = env.cuda();
        let da = upload(&mut cuda, &ones)?;
        let db = upload(&mut cuda, &ones)?;
        let dc = cuda.malloc(n * 4)?;
        nap(self.pre_ms);
        for launch in 0..self.launches {
            cuda.launch_sync(
                "vector_add",
                n.div_ceil(256) as u32,
                256,
                &[p(da), p(db), p(dc), pi(n as i64)],
            )?;
            if launch + 1 < self.launches {
                nap(self.mid_ms);
            }
        }
        download(&mut cuda, dc)?;
        for buf in [da, db, dc] {
            cuda.free(buf)?;
        }
        nap(self.post_ms);
        Ok(())
    }
}

/// A guest that only moves bytes: it never launches, so it never holds, and
/// its steady frame stream advances the dispatcher's simulated clock past a
/// held window's timeout while keeping the full-house flush unreachable.
#[derive(Debug, Clone)]
pub struct CopyStream {
    /// Upload → download → free round trips of one 4 KiB buffer.
    pub iterations: u32,
}

impl Application for CopyStream {
    fn name(&self) -> &str {
        "copyStream"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        vec![]
    }

    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let mut cuda = env.cuda();
        for _ in 0..self.iterations {
            let buf = upload(&mut cuda, &[7u8; 4096])?;
            download(&mut cuda, buf)?;
            cuda.free(buf)?;
        }
        Ok(())
    }
}
