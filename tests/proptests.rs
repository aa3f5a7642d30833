//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use sigmavp_gpu::alloc::DeviceAllocator;
use sigmavp_gpu::engine::{simulate, Engine, GpuOp, StreamId};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::codec::{decode_request, decode_response, encode_request, encode_response};
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId, WireParam};
use sigmavp_ipc::queue::{preserves_partial_order, Job, JobId, JobKind};
use sigmavp_sched::coalesce::MemoryLayout;
use sigmavp_sched::deps::reorder_critical_path;
use sigmavp_sched::interleave::reorder_async;

// ---------------------------------------------------------------------------
// IPC codec: every message round-trips bit-exactly.
// ---------------------------------------------------------------------------

fn arb_wire_param() -> impl Strategy<Value = WireParam> {
    prop_oneof![
        any::<u64>().prop_map(WireParam::Buffer),
        any::<i64>().prop_map(WireParam::I64),
        // Finite floats only: the codec is exact, but NaN breaks PartialEq.
        (-1e12f64..1e12).prop_map(WireParam::F64),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|bytes| Request::Malloc { bytes }),
        any::<u64>().prop_map(|handle| Request::Free { handle }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256), 0u32..16)
            .prop_map(|(handle, data, stream)| Request::MemcpyH2D { handle, data, stream }),
        (any::<u64>(), any::<u64>(), 0u32..16)
            .prop_map(|(handle, len, stream)| Request::MemcpyD2H { handle, len, stream }),
        (
            "[a-z_][a-z0-9_]{0,24}",
            1u32..4096,
            1u32..1024,
            proptest::collection::vec(arb_wire_param(), 0..8),
            any::<bool>(),
            0u32..16,
        )
            .prop_map(|(kernel, grid_dim, block_dim, params, sync, stream)| {
                Request::Launch { kernel, grid_dim, block_dim, params, sync, stream }
            }),
        Just(Request::Synchronize),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|handle| Response::Malloc { handle }),
        Just(Response::Done),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|data| Response::Data { data }),
        (0.0f64..1e6).prop_map(|device_time_s| Response::Launched { device_time_s }),
        "[ -~]{0,64}".prop_map(|message| Response::Error { message }),
    ]
}

proptest! {
    #[test]
    fn request_codec_roundtrips(
        vp in any::<u32>(),
        seq in any::<u64>(),
        t in 0.0f64..1e9,
        deadline in prop_oneof![Just(f64::INFINITY), 0.0f64..1e9],
        body in arb_request(),
    ) {
        let env = Envelope { vp: VpId(vp), seq, sent_at_s: t, deadline_s: deadline, body };
        let decoded = decode_request(&encode_request(&env)).expect("roundtrip decodes");
        prop_assert_eq!(env, decoded);
    }

    #[test]
    fn response_codec_roundtrips(vp in any::<u32>(), seq in any::<u64>(), body in arb_response()) {
        let env = ResponseEnvelope { vp: VpId(vp), seq, sent_at_s: 0.0, body };
        let decoded = decode_response(&encode_response(&env)).expect("roundtrip decodes");
        prop_assert_eq!(env, decoded);
    }

    #[test]
    fn truncated_requests_never_panic(body in arb_request(), cut in 0usize..64) {
        let env = Envelope { vp: VpId(0), seq: 0, sent_at_s: 0.0, deadline_s: f64::INFINITY, body };
        let frame = encode_request(&env);
        let cut = cut.min(frame.len());
        // Must error or succeed, never panic.
        let _ = decode_request(&frame[..cut]);
    }
}

// ---------------------------------------------------------------------------
// Re-scheduler: reordering always preserves each VP's partial order and never
// lengthens the synchronous-serialization bound.
// ---------------------------------------------------------------------------

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec((0u32..6, 0usize..3, 1u64..1_000_000), 0..40).prop_map(|specs| {
        let mut seq_per_vp = std::collections::HashMap::new();
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (vp, kind_sel, dur_us))| {
                let seq = seq_per_vp.entry(vp).or_insert(0u64);
                *seq += 1;
                Job {
                    id: JobId(i as u64),
                    vp: VpId(vp),
                    seq: *seq,
                    kind: match kind_sel {
                        0 => JobKind::CopyIn { bytes: dur_us },
                        1 => JobKind::CopyOut { bytes: dur_us },
                        _ => JobKind::Kernel {
                            name: "k".into(),
                            grid_dim: 1 + (dur_us % 64) as u32,
                            block_dim: 128,
                        },
                    },
                    sync: false,
                    enqueued_at_s: 0.0,
                    expected_duration_s: dur_us as f64 * 1e-6,
                }
            })
            .collect()
    })
}

fn jobs_to_ops(jobs: &[Job]) -> Vec<GpuOp> {
    jobs.iter()
        .map(|j| GpuOp {
            id: j.id.0,
            stream: StreamId(j.vp.0),
            engine: match j.kind {
                JobKind::CopyIn { .. } => Engine::CopyH2D,
                JobKind::CopyOut { .. } => Engine::CopyD2H,
                JobKind::Kernel { .. } => Engine::Compute,
            },
            duration_s: j.expected_duration_s,
            after: vec![],
        })
        .collect()
}

proptest! {
    #[test]
    fn reorder_preserves_partial_order(jobs in arb_jobs()) {
        let reordered = reorder_async(jobs.clone());
        prop_assert!(preserves_partial_order(&jobs, &reordered));
    }

    #[test]
    fn reorder_never_exceeds_serial_sum(jobs in arb_jobs()) {
        let serial: f64 = jobs.iter().map(|j| j.expected_duration_s).sum();
        let reordered = reorder_async(jobs);
        let makespan = simulate(&GpuArch::quadro_4000(), &jobs_to_ops(&reordered)).makespan_s;
        prop_assert!(makespan <= serial + 1e-12);
    }

    #[test]
    fn critical_path_scheduler_honours_the_same_contract(jobs in arb_jobs()) {
        // The alternative (ref [14]-style) scheduler preserves per-VP order and
        // never exceeds the synchronous-serialization bound either.
        let reordered = reorder_critical_path(jobs.clone());
        prop_assert!(preserves_partial_order(&jobs, &reordered));
        let serial: f64 = jobs.iter().map(|j| j.expected_duration_s).sum();
        let makespan = simulate(&GpuArch::quadro_4000(), &jobs_to_ops(&reordered)).makespan_s;
        prop_assert!(makespan <= serial + 1e-12);
    }

    #[test]
    fn schedulers_agree_within_a_factor(jobs in arb_jobs()) {
        // Greedy earliest-start and critical-path list scheduling are different
        // policies but neither should be drastically worse than the other on
        // random windows (both are 2-approximations of this relaxed model).
        if jobs.is_empty() { return Ok(()); }
        let arch = GpuArch::quadro_4000();
        let m_greedy = simulate(&arch, &jobs_to_ops(&reorder_async(jobs.clone()))).makespan_s;
        let m_cp = simulate(&arch, &jobs_to_ops(&reorder_critical_path(jobs))).makespan_s;
        prop_assert!(m_cp <= m_greedy * 3.0 + 1e-12, "cp {m_cp} vs greedy {m_greedy}");
        prop_assert!(m_greedy <= m_cp * 3.0 + 1e-12, "greedy {m_greedy} vs cp {m_cp}");
    }

    #[test]
    fn reorder_is_idempotent_on_its_own_output(jobs in arb_jobs()) {
        // Re-running the scheduler on an already-optimized order must not change
        // the makespan (it may produce a different but equally good order).
        let arch = GpuArch::quadro_4000();
        let once = reorder_async(jobs);
        let m1 = simulate(&arch, &jobs_to_ops(&once)).makespan_s;
        let twice = reorder_async(once);
        let m2 = simulate(&arch, &jobs_to_ops(&twice)).makespan_s;
        prop_assert!((m1 - m2).abs() <= 1e-12 * m1.max(1.0));
    }
}

// ---------------------------------------------------------------------------
// Scheduling pipeline: no pass — alone or composed — reorders two jobs of the
// same VP (the guest's submission-order contract).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn no_pipeline_pass_reorders_jobs_within_a_vp(jobs in arb_jobs()) {
        use sigmavp_sched::{
            AdaptiveSelect, Coalesce, DepOrder, Interleave, InterleaveMode, JobStream, PassCtx,
            Pipeline, Policy, SchedulePass,
        };

        let coalescible = |_vp: VpId| true;
        let ctx = PassCtx::new(&coalescible);
        let passes: Vec<Box<dyn SchedulePass>> = vec![
            Box::new(DepOrder),
            Box::new(Interleave(InterleaveMode::Off)),
            Box::new(Interleave(InterleaveMode::EarliestStart)),
            Box::new(Interleave(InterleaveMode::CriticalPath)),
            Box::new(Coalesce),
            Box::new(AdaptiveSelect),
        ];
        for pass in &passes {
            let out = pass.apply(JobStream::new(jobs.clone()), &ctx);
            prop_assert!(
                preserves_partial_order(&jobs, &out.jobs),
                "pass {} broke a VP's submission order",
                pass.name()
            );
        }
        // The composed pipelines of every policy honour the contract too.
        for policy in [Policy::Multiplexed, Policy::MultiplexedOptimized, Policy::Fifo] {
            let out = Pipeline::from_policy(&policy).plan(jobs.clone(), &ctx);
            prop_assert!(preserves_partial_order(&jobs, &out.jobs));
        }
    }
}

// ---------------------------------------------------------------------------
// Coalescing memory layout: gather/scatter is a partition isomorphism.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn gather_scatter_roundtrips(parts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8)) {
        let sizes: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
        let layout = MemoryLayout::contiguous(&sizes, 128);
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let merged = layout.gather(&slices);
        let back = layout.scatter(&merged);
        prop_assert_eq!(parts, back);
    }

    #[test]
    fn layout_offsets_never_overlap(sizes in proptest::collection::vec(1u64..10_000, 1..16)) {
        let layout = MemoryLayout::contiguous(&sizes, 128);
        for i in 1..sizes.len() {
            prop_assert!(layout.offset(i) >= layout.offset(i - 1) + layout.len_of(i - 1));
            prop_assert_eq!(layout.offset(i) % 128, 0);
        }
        prop_assert!(layout.total_len() >= sizes.iter().sum::<u64>());
    }
}

// ---------------------------------------------------------------------------
// Device allocator: free bytes are conserved, live allocations never overlap.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn allocator_conserves_and_separates(ops in proptest::collection::vec((any::<bool>(), 1u64..4096), 1..64)) {
        let capacity = 1 << 20;
        let mut alloc = DeviceAllocator::new(capacity);
        let mut live = Vec::new();
        for (do_alloc, len) in ops {
            if do_alloc || live.is_empty() {
                if let Ok(buf) = alloc.alloc(len) {
                    live.push(buf);
                }
            } else {
                let buf = live.swap_remove(live.len() / 2);
                alloc.free(buf).expect("live buffer frees");
            }
            // Conservation: used + free == capacity.
            prop_assert_eq!(alloc.used_bytes() + alloc.free_bytes(), capacity);
            // Separation: live buffers never overlap.
            let mut ranges: Vec<(u64, u64)> = live.iter().map(|b| (b.addr(), b.addr() + b.len())).collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
        }
        // Draining everything restores full capacity.
        for buf in live {
            alloc.free(buf).expect("drain");
        }
        prop_assert_eq!(alloc.free_bytes(), capacity);
    }
}

// ---------------------------------------------------------------------------
// Engine timeline: makespan bounds.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn makespan_is_bounded_by_sum_and_critical_path(jobs in arb_jobs()) {
        let arch = GpuArch::quadro_4000();
        let ops = jobs_to_ops(&jobs);
        let tl = simulate(&arch, &ops);
        let sum: f64 = jobs.iter().map(|j| j.expected_duration_s).sum();
        prop_assert!(tl.makespan_s <= sum + 1e-12);
        // Lower bound: the busiest engine's total work.
        for engine in [Engine::CopyH2D, Engine::CopyD2H, Engine::Compute] {
            prop_assert!(tl.makespan_s + 1e-12 >= tl.busy_s(engine));
        }
        // Per-stream ordering: spans of one stream never overlap.
        for a in &tl.spans {
            for b in &tl.spans {
                if a.id < b.id && a.stream == b.stream {
                    prop_assert!(a.end_s <= b.start_s + 1e-12 || b.end_s <= a.start_s + 1e-12);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry export: Chrome-trace JSON is well-formed for any schedule.
// ---------------------------------------------------------------------------

/// Minimal JSON validator (the repo deliberately carries no JSON parser): checks
/// that `s` is one syntactically valid JSON value with nothing trailing.
fn assert_valid_json(s: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => lit(b, i, b"true"),
            Some(b'f') => lit(b, i, b"false"),
            Some(b'n') => lit(b, i, b"null"),
            Some(_) => number(b, i),
            None => Err("unexpected end".into()),
        }
    }
    fn lit(b: &[u8], i: usize, what: &[u8]) -> Result<usize, String> {
        if b[i..].starts_with(what) {
            Ok(i + what.len())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected string at {i}"));
        }
        let mut i = i + 1;
        loop {
            match b.get(i) {
                Some(b'"') => return Ok(i + 1),
                Some(b'\\') => match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                    Some(b'u') => {
                        let hex = b.get(i + 2..i + 6).ok_or("short \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at {i}"));
                        }
                        i += 6;
                    }
                    _ => return Err(format!("bad escape at {i}")),
                },
                Some(c) if *c >= 0x20 => i += 1,
                _ => return Err(format!("bad string at {i}")),
            }
        }
    }
    fn number(b: &[u8], i: usize) -> Result<usize, String> {
        let start = i;
        let mut i = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            i += 1;
        }
        if i == start || !b[start..i].iter().any(u8::is_ascii_digit) {
            return Err(format!("expected number at {start}"));
        }
        Ok(i)
    }

    let b = s.as_bytes();
    match value(b, 0) {
        Ok(end) => {
            let end = skip_ws(b, end);
            assert!(end == b.len(), "trailing garbage at byte {end} of {}", b.len());
        }
        Err(e) => panic!("invalid JSON: {e}\n{s}"),
    }
}

proptest! {
    /// Any simulated schedule exports to parseable Chrome-trace JSON whose spans
    /// have non-negative durations and never overlap within an engine lane.
    #[test]
    fn chrome_trace_export_is_well_formed(jobs in arb_jobs()) {
        use sigmavp_telemetry::{EventKind, TimeDomain};

        let arch = GpuArch::quadro_4000();
        let tl = simulate(&arch, &jobs_to_ops(&jobs));
        let events = tl.trace_events_with_streams();

        // Spans are non-negative and sane.
        let mut per_lane: std::collections::HashMap<_, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for e in &events {
            prop_assert_eq!(e.domain, TimeDomain::Sim);
            if let EventKind::Span { start_s, dur_s } = e.kind {
                prop_assert!(start_s >= 0.0 && dur_s >= 0.0, "{:?}", e);
                per_lane.entry(e.lane).or_default().push((start_s, start_s + dur_s));
            }
        }
        // Engine lanes serialize their work: no two spans on one engine overlap.
        // (VP mirror lanes are per-stream, which the engine model also orders.)
        for (lane, mut spans) in per_lane {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-9, "{:?} overlaps on {:?}", w, lane);
            }
        }

        assert_valid_json(&sigmavp_telemetry::export::chrome_trace_json(&events));
    }

    /// Hostile event names (quotes, backslashes, control characters, non-ASCII)
    /// never break the JSON writer.
    #[test]
    fn chrome_trace_escapes_arbitrary_names(
        names in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..8),
        starts in proptest::collection::vec(0.0f64..1e6, 1..8),
    ) {
        use sigmavp_telemetry::{Lane, TimeDomain, TraceEvent};

        // Hostile alphabet: JSON-significant characters, control characters,
        // and multibyte code points.
        const NASTY: &[char] =
            &['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'a', ' ', 'é', '\u{1F980}', '<'];
        let events: Vec<TraceEvent> = names
            .iter()
            .zip(&starts)
            .enumerate()
            .map(|(i, (bytes, start))| {
                let name: String =
                    bytes.iter().map(|b| NASTY[*b as usize % NASTY.len()]).collect();
                TraceEvent::span(TimeDomain::Wall, Lane::Vp(i as u32), name, *start, 0.5)
            })
            .collect();
        assert_valid_json(&sigmavp_telemetry::export::chrome_trace_json(&events));
    }
}

// ---------------------------------------------------------------------------
// Partial-quorum sync flushing, on the real dispatch core: for any quorum
// fraction and any arrival order, every offered request yields exactly one
// delivery, each VP's sequence order is preserved across windows, and a
// quorum-triggered window is exactly threshold-sized (DESIGN.md §15).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn quorum_windows_partition_held_jobs(
        job_counts in proptest::collection::vec(0usize..5, 1..6),
        pct in 1u32..101,
        choices in proptest::collection::vec(any::<usize>(), 1..128),
    ) {
        use std::collections::HashMap;
        use std::sync::Arc;

        use sigmavp::dispatch::{DispatchCore, Turn};
        use sigmavp::{ExecutionSession, Policy};
        use sigmavp_sched::quorum_threshold;

        // Each VP is parked while one of its launches is held (guests are
        // synchronous), arrivals are an adversarial interleaving, and a VP
        // that has issued its last launch leaves the quorum, so the core can
        // never be left waiting for a launch that will not come.
        let vps = job_counts.len();
        let policy = Policy::MultiplexedOptimized.with_sync_hold(true).with_sync_quorum_pct(pct);
        let session = ExecutionSession::new(
            vec![GpuArch::quadro_4000()],
            [sigmavp_workloads::kernels::vector_add()].into_iter().collect(),
        )
        .expect("one device");
        let mut core =
            DispatchCore::new(Arc::new(parking_lot::Mutex::new(session)), &policy, None, HashMap::new());
        let mut next_seq = vec![0u64; vps];
        let mut now_s = 0.0f64;
        let mut offered: Vec<(u32, u64)> = Vec::new();
        let mut envelope = |vp: usize, body: Request| {
            now_s += 1e-6;
            next_seq[vp] += 1;
            offered.push((vp as u32, next_seq[vp] - 1));
            Envelope {
                vp: VpId(vp as u32),
                seq: next_seq[vp] - 1,
                sent_at_s: now_s,
                deadline_s: Envelope::NO_DEADLINE,
                body,
            }
        };
        let mut launches = Vec::new();
        let mut delivered: Vec<(u32, u64)> = Vec::new();
        for vp in 0..vps {
            core.join(VpId(vp as u32));
            let mut params = Vec::new();
            for _ in 0..3 {
                core.offer(envelope(vp, Request::Malloc { bytes: 128 }));
                let turn = core.turn();
                prop_assert_eq!(turn.deliveries.len(), 1);
                let Response::Malloc { handle } = turn.deliveries[0].response.body else {
                    panic!("malloc failed")
                };
                delivered.push((vp as u32, turn.deliveries[0].response.seq));
                params.push(WireParam::Buffer(handle));
            }
            params.push(WireParam::I64(32));
            launches.push(Request::Launch {
                kernel: "vector_add".into(),
                grid_dim: 1,
                block_dim: 32,
                params,
                sync: true,
                stream: 0,
            });
        }

        let mut left = job_counts.clone();
        let mut parked = vec![false; vps];
        let mut member = vec![true; vps];
        let mut collect = |turn: Turn, parked: &mut Vec<bool>| {
            for delivery in &turn.deliveries {
                let resumed = matches!(delivery.response.body, Response::Launched { .. });
                assert!(resumed && delivery.resume, "{delivery:?}");
                parked[delivery.response.vp.0 as usize] = false;
                delivered.push((delivery.response.vp.0, delivery.response.seq));
            }
            turn.deliveries.len()
        };
        let mut step = 0usize;
        loop {
            for vp in 0..vps {
                if member[vp] && left[vp] == 0 && !parked[vp] {
                    member[vp] = false;
                    core.leave(VpId(vp as u32));
                    collect(core.turn(), &mut parked);
                }
            }
            let ready: Vec<usize> = (0..vps).filter(|&v| left[v] > 0 && !parked[v]).collect();
            if ready.is_empty() {
                break;
            }
            let pick = ready[choices[step % choices.len()] % ready.len()];
            step += 1;
            left[pick] -= 1;
            parked[pick] = true;
            let eligible = member.iter().filter(|m| **m).count();
            let quorum_flushes = core.stats().quorum_flushes;
            prop_assert!(core.offer(envelope(pick, launches[pick].clone())), "a sync launch is held");
            let flushed = collect(core.turn(), &mut parked);
            if core.stats().quorum_flushes > quorum_flushes {
                prop_assert_eq!(flushed, quorum_threshold(eligible, pct));
            }
        }
        prop_assert!(core.close().deliveries.is_empty(), "every departure released its window");

        // Exactly one delivery per offered request…
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        offered.sort_unstable();
        prop_assert_eq!(&sorted, &offered);
        // …and each VP's requests answered in sequence order, so a late
        // arrival rolls into a *later* window, never an earlier one.
        let mut last_seq: Vec<Option<u64>> = vec![None; vps];
        for (vp, seq) in delivered {
            prop_assert!(last_seq[vp as usize].is_none_or(|prev| prev < seq));
            last_seq[vp as usize] = Some(seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Effect-once on the real dispatch core, whose per-VP record holds both the
// last answered response and the in-flight guard: under any interleaving of
// fresh requests, duplicates (of the answered seq, of a pending one, of a held
// launch), turns and quorum changes, every accepted request executes and is
// delivered exactly once, a duplicate of the answered seq gets the same bytes
// again, and a duplicate of an unanswered one gets nothing.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn accepted_requests_execute_once_and_duplicates_never_do(
        sync_hold in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, 0usize..3), 1..96),
    ) {
        use std::collections::HashMap;
        use std::sync::Arc;

        use sigmavp::dispatch::{DispatchCore, Turn};
        use sigmavp::{ExecutionSession, Policy};

        const VPS: usize = 3;
        let policy = Policy::MultiplexedOptimized.with_sync_hold(sync_hold);
        let session = ExecutionSession::new(
            vec![GpuArch::quadro_4000(); 2],
            [sigmavp_workloads::kernels::vector_add()].into_iter().collect(),
        )
        .expect("two devices");
        let mut core =
            DispatchCore::new(Arc::new(parking_lot::Mutex::new(session)), &policy, None, HashMap::new());

        // The guest side of the books. A VP with a held launch is stopped and
        // sends nothing new; an async request may be followed by another
        // before the core gets its turn.
        #[derive(Default)]
        struct Guests {
            outstanding: [Vec<Envelope>; VPS],
            parked: [bool; VPS],
            /// Per VP, the newest request answered and the bytes of its answer.
            answered: [Option<(Envelope, Vec<u8>)>; VPS],
            /// Resends the core owes, per `(vp, seq)`.
            owed: HashMap<(usize, u64), u32>,
        }
        impl Guests {
            fn settle(&mut self, turn: Turn) {
                for delivery in turn.deliveries {
                    let (vp, seq) = (delivery.response.vp.0 as usize, delivery.response.seq);
                    let bytes = encode_response(&delivery.response).to_vec();
                    match self.outstanding[vp].iter().position(|e| e.seq == seq) {
                        Some(at) => {
                            self.outstanding[vp].remove(at);
                            self.parked[vp] &= !delivery.resume;
                            if self.answered[vp].as_ref().is_none_or(|(last, _)| last.seq < seq) {
                                self.answered[vp] = Some((delivery.request, bytes));
                            }
                        }
                        None => {
                            let due = self.owed.get_mut(&(vp, seq)).filter(|n| **n > 0);
                            *due.expect("an answer nobody is waiting for") -= 1;
                            let (_, first) = self.answered[vp].as_ref().expect("answered before");
                            assert_eq!(&bytes, first, "a resend differs from the first answer");
                        }
                    }
                }
            }
        }
        let mut guests = Guests::default();
        let mut next_seq = [0u64; VPS];
        let mut now_s = 0.0f64;
        let mut member = [true; VPS];
        let (mut accepted, mut holds, mut resent) = (0u64, 0u64, 0u64);
        let mut fresh = |vp: usize, body: Request| {
            now_s += 1e-6;
            next_seq[vp] += 1;
            Envelope {
                vp: VpId(vp as u32),
                seq: next_seq[vp] - 1,
                sent_at_s: now_s,
                deadline_s: Envelope::NO_DEADLINE,
                body,
            }
        };

        let mut launches = Vec::new();
        for vp in 0..VPS {
            core.join(VpId(vp as u32));
            let mut params = Vec::new();
            for _ in 0..3 {
                let malloc = fresh(vp, Request::Malloc { bytes: 128 });
                guests.outstanding[vp].push(malloc.clone());
                accepted += 1;
                core.offer(malloc);
                let turn = core.turn();
                let Response::Malloc { handle } = turn.deliveries[0].response.body else {
                    panic!("malloc failed")
                };
                guests.settle(turn);
                params.push(WireParam::Buffer(handle));
            }
            params.push(WireParam::I64(32));
            launches.push(Request::Launch {
                kernel: "vector_add".into(),
                grid_dim: 1,
                block_dim: 32,
                params,
                sync: true,
                stream: 0,
            });
        }

        for (op, vp) in ops {
            match op {
                // A fresh request: async, or a launch (held under sync-hold).
                0..=3 if !guests.parked[vp] => {
                    let body = if op < 2 { Request::Synchronize } else { launches[vp].clone() };
                    let envelope = fresh(vp, body);
                    guests.outstanding[vp].push(envelope.clone());
                    accepted += 1;
                    guests.parked[vp] = core.offer(envelope);
                    prop_assert_eq!(guests.parked[vp], sync_hold && op >= 2);
                    holds += u64::from(guests.parked[vp]);
                }
                // A retry of the request answered last: its answer again.
                4 => {
                    if let Some((request, _)) = &guests.answered[vp] {
                        prop_assert!(!core.offer(request.clone()));
                        *guests.owed.entry((vp, request.seq)).or_default() += 1;
                        resent += 1;
                    }
                }
                // A delayed duplicate of the newest unanswered request, held
                // or pending: dropped.
                5 => {
                    if let Some(duplicate) = guests.outstanding[vp].last() {
                        prop_assert!(!core.offer(duplicate.clone()), "held twice");
                    }
                }
                6 => guests.settle(core.turn()),
                7 => {
                    member[vp] = !member[vp];
                    if member[vp] {
                        core.join(VpId(vp as u32));
                    } else {
                        core.leave(VpId(vp as u32));
                    }
                }
                _ => {}
            }
        }
        guests.settle(core.close());

        let Guests { outstanding, owed, .. } = guests;
        prop_assert!(outstanding.iter().all(Vec::is_empty), "unanswered: {:?}", outstanding);
        prop_assert!(owed.values().all(|n| *n == 0), "resends never made: {:?}", owed);
        let stats = core.stats();
        prop_assert_eq!((stats.requests, stats.dedup_hits, stats.holds), (accepted, resent, holds));
    }
}
