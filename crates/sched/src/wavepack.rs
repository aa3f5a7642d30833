//! Wave-packing: merge *wave-aligned* kernel launches into one grid (Eq. 9).
//!
//! [`Coalesce`](crate::pipeline::Coalesce) only merges launches of the *same*
//! kernel (the paper's Kernel Match test). But Eq. 9 prices a merged launch as
//! `T = To + Te·⌈ξ/λ⌉` — one launch overhead plus compute proportional to the
//! merged wave count — and when every member grid is already a whole number of
//! waves (`grid_dim % λ == 0`), concatenating grids is lossless: the merged
//! wave count is exactly the sum of the members', so the merge saves the
//! member launch overheads with zero alignment residual. That holds regardless
//! of kernel *name*: waves from different kernels of the same block shape pack
//! back to back like cars of a train.
//!
//! [`WavePack`] exploits this: among jobs that `Coalesce` left ungrouped, it
//! merges kernel launches of coalescing-friendly VPs that share a block size
//! and whose grids are wave-aligned. It needs the device's wave geometry —
//! λ as a function of block size — injected via [`PassCtx::with_wave_lanes`];
//! without it the pass is the identity (it will not guess alignment).
//!
//! Ordinal scope: offline plans group only within a per-VP ordinal, exactly
//! like `Coalesce` — the ordinal is the only evidence that the members were
//! concurrently pending. A *live synchronous* window
//! ([`PassCtx::with_live_sync`]) carries stronger evidence: every job in it is
//! an in-flight request whose VP is stopped and waiting, so everything in the
//! window is concurrently pending by construction and the pass may group
//! across ordinals.

use std::collections::{HashMap, HashSet};

use sigmavp_ipc::queue::{JobId, JobKind};

use crate::pipeline::{JobStream, MergeGroup, PassCtx, SchedulePass};

/// The wave-packing pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WavePack;

impl SchedulePass for WavePack {
    fn name(&self) -> &'static str {
        "wave_pack"
    }

    fn apply(&self, mut stream: JobStream, ctx: &PassCtx<'_>) -> JobStream {
        let already: HashSet<JobId> =
            stream.groups.iter().flat_map(MergeGroup::member_ids).collect();

        // Key: (ordinal-or-0, block_dim). Live sync windows ignore ordinals.
        let mut ordinal: HashMap<sigmavp_ipc::message::VpId, u64> = HashMap::new();
        let mut packs: HashMap<(u64, u32), Vec<usize>> = HashMap::new();
        for (idx, job) in stream.jobs.iter().enumerate() {
            let ord = ordinal.entry(job.vp).or_insert(0);
            let key_ord = if ctx.is_live_sync() { 0 } else { *ord };
            *ord += 1;
            if already.contains(&job.id) || !ctx.is_coalescible(job.vp) {
                continue;
            }
            let JobKind::Kernel { grid_dim, block_dim, .. } = &job.kind else {
                continue;
            };
            let Some(lanes) = ctx.wave_lanes(*block_dim) else {
                continue;
            };
            if lanes == 0 || *grid_dim == 0 || grid_dim % lanes != 0 {
                continue;
            }
            packs.entry((key_ord, *block_dim)).or_default().push(idx);
        }

        let mut merged: Vec<(usize, MergeGroup)> = packs
            .into_values()
            .filter(|members| members.len() >= 2)
            .map(|members| {
                let anchor_idx = *members.iter().max().expect("non-empty pack");
                let dropped = members
                    .iter()
                    .copied()
                    .filter(|&i| i != anchor_idx)
                    .map(|i| stream.jobs[i].id)
                    .collect();
                (anchor_idx, MergeGroup { anchor: stream.jobs[anchor_idx].id, dropped })
            })
            .collect();
        merged.sort_by_key(|(anchor_idx, _)| *anchor_idx);
        stream.groups.extend(merged.into_iter().map(|(_, g)| g));
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::message::VpId;
    use sigmavp_ipc::queue::Job;

    fn kernel(id: u64, vp: u32, seq: u64, name: &str, grid: u32, block: u32) -> Job {
        Job {
            id: JobId(id),
            vp: VpId(vp),
            seq,
            kind: JobKind::Kernel { name: name.into(), grid_dim: grid, block_dim: block },
            sync: true,
            enqueued_at_s: 0.0,
            expected_duration_s: 1.0,
        }
    }

    /// λ = 4 blocks per wave for every block size, as a test geometry.
    fn lanes4(_block: u32) -> u32 {
        4
    }

    #[test]
    fn packs_aligned_kernels_of_different_names() {
        let jobs = vec![
            kernel(0, 0, 0, "a", 8, 128),
            kernel(1, 1, 0, "b", 12, 128),
            kernel(2, 2, 0, "c", 4, 128),
        ];
        let coalescible = |_| true;
        let lanes = lanes4;
        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes);
        let out = WavePack.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].size(), 3);
        assert_eq!(out.groups[0].anchor, JobId(2), "anchor is the latest member");
    }

    #[test]
    fn misaligned_or_mismatched_jobs_stay_out() {
        let jobs = vec![
            kernel(0, 0, 0, "a", 8, 128),
            kernel(1, 1, 0, "b", 7, 128), // 7 % 4 != 0: not wave-aligned
            kernel(2, 2, 0, "c", 8, 256), // different block size
            kernel(3, 3, 0, "d", 12, 128), // packs with job 0
        ];
        let coalescible = |_| true;
        let lanes = lanes4;
        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes);
        let out = WavePack.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.groups.len(), 1);
        let members: Vec<JobId> = out.groups[0].member_ids().collect();
        assert_eq!(members, vec![JobId(0), JobId(3)]);
    }

    #[test]
    fn identity_without_wave_geometry() {
        let jobs = vec![kernel(0, 0, 0, "a", 8, 128), kernel(1, 1, 0, "b", 8, 128)];
        let coalescible = |_| true;
        let ctx = PassCtx::new(&coalescible);
        let out = WavePack.apply(JobStream::new(jobs), &ctx);
        assert!(out.groups.is_empty(), "no λ injected: must not guess alignment");
    }

    #[test]
    fn respects_existing_coalesce_groups() {
        let jobs = vec![
            kernel(0, 0, 0, "k", 8, 128),
            kernel(1, 1, 0, "k", 8, 128),
            kernel(2, 2, 0, "x", 8, 128),
        ];
        let mut stream = JobStream::new(jobs);
        stream.groups.push(MergeGroup { anchor: JobId(1), dropped: vec![JobId(0)] });
        let coalescible = |_| true;
        let lanes = lanes4;
        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes);
        let out = WavePack.apply(stream, &ctx);
        // Job 2 alone cannot form a pack; the Coalesce group is untouched.
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].anchor, JobId(1));
    }

    #[test]
    fn offline_requires_same_ordinal_live_sync_does_not() {
        // VP 0 submits two launches (ordinals 0 and 1); VP 1 submits one
        // (ordinal 0). Offline, only the ordinal-0 pair may pack.
        let jobs = vec![
            kernel(0, 0, 0, "a", 8, 128),
            kernel(1, 0, 1, "b", 8, 128),
            kernel(2, 1, 0, "c", 8, 128),
        ];
        let coalescible = |_| true;
        let lanes = lanes4;
        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes);
        let offline = WavePack.apply(JobStream::new(jobs.clone()), &ctx);
        assert_eq!(offline.groups.len(), 1);
        assert_eq!(offline.groups[0].size(), 2);

        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes).with_live_sync(true);
        let live = WavePack.apply(JobStream::new(jobs), &ctx);
        assert_eq!(live.groups.len(), 1);
        assert_eq!(live.groups[0].size(), 3, "live sync window packs across ordinals");
    }

    #[test]
    fn non_coalescible_vps_are_skipped() {
        let jobs = vec![kernel(0, 0, 0, "a", 8, 128), kernel(1, 1, 0, "b", 8, 128)];
        let coalescible = |vp: VpId| vp.0 == 0;
        let lanes = lanes4;
        let ctx = PassCtx::new(&coalescible).with_wave_lanes(&lanes);
        let out = WavePack.apply(JobStream::new(jobs), &ctx);
        assert!(out.groups.is_empty());
    }
}
