//! The traced run: per-layer timings taken by calling each layer's public
//! functions from outside, on a sample of the workload's own operations.
//! Nothing inside the program is instrumented.
//!
//! * `cluster.master`, `cluster.rpc`, `cluster.index_node`,
//!   `cluster.client`: a sampled search is replayed by hand — `LocateAcgs`
//!   at the Master, then `OpenSearch` on every node in parallel and
//!   `PullHits` / `CloseSearch` one at a time (the client's fan-out), then
//!   the client's `merge_sorted_hits` — each call timed.
//! * `query`: `plan_request` and `execute_request` on a pinned standalone
//!   group holding one ACG's worth of the generated records.
//! * `index`: `enqueue_batch` / `commit`, file-backed `Wal::append` /
//!   `sync`, and `AcgIndexGroup::snapshot`, on standalone groups.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use propeller_cluster::{Cluster, Request, Response};
use propeller_index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp, Wal};
use propeller_obs::TraceContext;
use propeller_query::{
    execute_request, merge_sorted_hits, plan_request, AccessPath, CompareOp, ContainsMode, Hit,
    Predicate, SearchRequest, SortKey,
};
use propeller_types::{AcgId, AttrName, FileId, NodeId, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::check;
use crate::gen::{self, RecordGen};
use crate::stats::Sample;
use crate::workload::{Inputs, Spec, Tally};

/// Page size of the replayed sessions (the client's default page).
const PAGE: usize = 64;
/// Session-owner id of the replay (clear of the ids real clients get).
const REPLAY_CLIENT: u64 = 1 << 40;
/// Per-call samples for the cheap round trips (enough for a p99).
const CALL_SAMPLES: usize = 1_000;
/// Ops per replayed write batch.
const BATCH_OPS: usize = 50;

/// Access-path names, as reported in `query.exec_us.<path>`.
pub const PATHS: [&str; 6] =
    ["ordered_scan", "hash_eq", "btree_range", "kd_range", "postings", "full_scan"];

fn path_name(path: &AccessPath) -> &'static str {
    match path {
        AccessPath::OrderedScan { .. } => "ordered_scan",
        AccessPath::HashEq { .. } => "hash_eq",
        AccessPath::BTreeRange { .. } => "btree_range",
        AccessPath::KdBox { .. } => "kd_range",
        AccessPath::Postings { .. } => "postings",
        AccessPath::FullScan => "full_scan",
    }
}

/// Every per-layer sample of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub locate_us: Sample,
    pub hop_us: Sample,
    pub open_us: Sample,
    pub pull_us: Sample,
    pub close_us: Sample,
    pub merge_us: Sample,
    pub calls_per_search: Sample,
    pub resolve_us: Sample,
    pub plan_us: Sample,
    pub exec_us: BTreeMap<&'static str, Sample>,
    pub enqueue_us_per_op: Sample,
    pub commit_us: Sample,
    pub wal_append_us: Sample,
    pub wal_sync_us: Sample,
    pub wal_bytes_per_op: Sample,
    pub snapshot_us: Sample,
    /// Per sampled search: the timed calls on its blocking path (locate +
    /// the slowest parallel open + every pull and close + merge), ms.
    pub blocking_ms: Sample,
    /// Per sampled search: the replay's own wall time, ms.
    pub replay_ms: Sample,
    /// Per sampled search: `search_with` wall time, untraced, ms.
    pub engine_ms: Sample,
    pub traced_searches: usize,
    pub tally: Tally,
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Replays the cluster-side layers on `searches` sampled pool queries.
pub fn trace_cluster(
    cluster: &Cluster,
    origin: Instant,
    inputs: &Inputs,
    searches: usize,
    seed: u64,
    out: &mut Layers,
) {
    let rpc = cluster.rpc();
    let master = cluster.master_id();
    let nodes = cluster.index_node_ids().to_vec();
    let now = || Timestamp::from_micros(origin.elapsed().as_micros() as u64);
    for i in 0..CALL_SAMPLES {
        let start = Instant::now();
        let ok = matches!(
            rpc.call(nodes[i % nodes.len()], Request::AcgLsns),
            Ok(Response::AcgLsnReport(_))
        );
        out.hop_us.push(us_since(start));
        out.tally.record(ok);
        let start = Instant::now();
        let ok = matches!(rpc.call(master, Request::LocateAcgs), Ok(Response::Located(_)));
        out.locate_us.push(us_since(start));
        out.tally.record(ok);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7_4ACE);
    let client = cluster.client();
    for i in 0..searches {
        let q = rng.gen_range(0..inputs.pool.len());
        let request = &inputs.pool[q].request;
        // Alternate which of the pair runs first.
        let engine = || {
            let start = Instant::now();
            let ok = client.search_with(request).is_ok();
            (start.elapsed().as_secs_f64() * 1e3, ok)
        };
        let first = (i % 2 == 0).then(engine);
        let replay = replay_search(cluster, request, now(), out);
        let (engine_ms, engine_ok) = first.unwrap_or_else(engine);
        out.engine_ms.push(engine_ms);
        out.tally.record(engine_ok);
        let ok = replay
            .is_some_and(|hits| check(request, &inputs.expect[q], &hits, inputs.tokens.as_ref()));
        out.tally.record(ok);
        out.traced_searches += 1;
    }
    // Master resolve for a batch's worth of existing files.
    for _ in 0..CALL_SAMPLES {
        let files: Vec<FileId> = (0..BATCH_OPS)
            .map(|_| inputs.records[rng.gen_range(0..inputs.records.len())].file)
            .collect();
        let start = Instant::now();
        let ok = matches!(
            rpc.call(
                master,
                Request::ResolveFiles { files, hints_since: 0, ctx: TraceContext::NONE }
            ),
            Ok(Response::Resolved { .. })
        );
        out.resolve_us.push(us_since(start));
        out.tally.record(ok);
    }
}

/// One search replayed call by call, with the client's concurrency:
/// locate, an open per node (in parallel), pulls of each node whose hits
/// may still reach the global top-k and a close of every session still
/// open (one at a time), and the client-side merge. Returns the merged
/// hits (`None` if any call failed).
fn replay_search(
    cluster: &Cluster,
    request: &SearchRequest,
    now: Timestamp,
    out: &mut Layers,
) -> Option<Vec<Hit>> {
    let rpc = cluster.rpc();
    let replay_start = Instant::now();
    let start = Instant::now();
    let located = match rpc.call(cluster.master_id(), Request::LocateAcgs) {
        Ok(Response::Located(rows)) => rows,
        _ => return None,
    };
    let locate_us = us_since(start);
    out.locate_us.push(locate_us);
    let mut by_node: BTreeMap<NodeId, Vec<AcgId>> = BTreeMap::new();
    for (acg, replicas) in located {
        by_node.entry(*replicas.first()?).or_default().push(acg);
    }
    let k = request.limit.unwrap_or(usize::MAX);
    let page = if request.limit.is_some() { PAGE } else { 1 << 30 };
    // Open one session per node in parallel, as the client does.
    let opens: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = by_node
            .into_iter()
            .map(|(node, acgs)| {
                let request = request.clone();
                s.spawn(move || {
                    let start = Instant::now();
                    let open = rpc.call(
                        node,
                        Request::OpenSearch {
                            acgs,
                            request,
                            client: REPLAY_CLIENT,
                            page,
                            now,
                            ctx: TraceContext::NONE,
                        },
                    );
                    (node, open, us_since(start))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay open panicked")).collect()
    });
    // Per node: (node, session, hits so far, exhausted).
    let mut streams = Vec::with_capacity(opens.len());
    let mut calls = 1.0;
    let mut slowest_open_us: f64 = 0.0;
    for (node, open, us) in opens {
        out.open_us.push(us);
        slowest_open_us = slowest_open_us.max(us);
        calls += 1.0;
        let Ok(Response::SearchPage { session, hits, exhausted, .. }) = open else { return None };
        streams.push((node, session, hits, exhausted));
    }
    // Then pull one node at a time, as the client's merge does, and only
    // the nodes whose last shipped hit still sorts inside the running
    // global top-k.
    let mut sequential_us = 0.0;
    loop {
        let lists: Vec<Vec<Hit>> = streams.iter().map(|s| s.2.clone()).collect();
        let merged = merge_sorted_hits(lists, &request.sort, request.limit);
        let kth = (merged.len() >= k).then(|| merged[k - 1].clone());
        let mut pulled = false;
        for (node, session, hits, exhausted) in &mut streams {
            let behind = match (&kth, hits.last()) {
                (Some(kth), Some(last)) => request.sort.cmp_hits(last, kth).is_lt(),
                _ => true,
            };
            if *exhausted || !behind {
                continue;
            }
            let start = Instant::now();
            let pull = rpc.call(
                *node,
                Request::PullHits { session: *session, page, ctx: TraceContext::NONE },
            );
            let us = us_since(start);
            out.pull_us.push(us);
            sequential_us += us;
            calls += 1.0;
            let Ok(Response::SearchPage { session: next, hits: more, exhausted: done, .. }) = pull
            else {
                return None;
            };
            hits.extend(more);
            (*session, *exhausted) = (next, done);
            pulled = true;
        }
        if !pulled {
            break;
        }
    }
    let mut lists = Vec::with_capacity(streams.len());
    for (node, session, hits, exhausted) in streams {
        if !exhausted {
            let start = Instant::now();
            let closed = rpc.call(node, Request::CloseSearch { session });
            let us = us_since(start);
            out.close_us.push(us);
            sequential_us += us;
            calls += 1.0;
            if !matches!(closed, Ok(Response::SearchClosed { .. })) {
                return None;
            }
        }
        lists.push(hits);
    }
    let start = Instant::now();
    let merged = merge_sorted_hits(lists, &request.sort, request.limit);
    let merge_us = us_since(start);
    out.merge_us.push(merge_us);
    out.replay_ms.push(replay_start.elapsed().as_secs_f64() * 1e3);
    out.blocking_ms.push((locate_us + slowest_open_us + sequential_us + merge_us) / 1e3);
    out.calls_per_search.push(calls);
    Some(merged)
}

/// One query per access path, for the paths the workload's own mix does
/// not reach on the standalone group.
fn path_probes() -> Vec<SearchRequest> {
    let size_ge = |v: u64| Predicate::cmp(AttrName::Size, CompareOp::Ge, Value::U64(v));
    vec![
        SearchRequest::new(size_ge(0))
            .with_limit(10)
            .sorted_by(SortKey::Descending(AttrName::Size)),
        SearchRequest::new(Predicate::Keyword("tag7".into())),
        SearchRequest::new(Predicate::and(vec![
            size_ge(1 << 30),
            Predicate::cmp(AttrName::Size, CompareOp::Le, Value::U64(1 << 31)),
        ])),
        SearchRequest::new(Predicate::and(vec![
            size_ge(1 << 30),
            Predicate::cmp(AttrName::Size, CompareOp::Le, Value::U64(1 << 31)),
            Predicate::cmp(
                AttrName::Mtime,
                CompareOp::Le,
                Value::U64(Timestamp::from_secs(1 << 20).as_micros()),
            ),
        ])),
        SearchRequest::new(Predicate::contains(vec!["tag7", "tag8"], ContainsMode::Any))
            .with_limit(10)
            .sorted_by(SortKey::Relevance),
        SearchRequest::new(Predicate::cmp(AttrName::Uid, CompareOp::Eq, Value::U64(7))),
    ]
}

/// The standalone `query` and `index` layers on one ACG's worth of records.
pub fn trace_index(spec: &Spec, inputs: &Inputs, dir: &Path, seed: u64, out: &mut Layers) {
    let acg_records: Vec<FileRecord> =
        inputs.records[..spec.group_capacity().min(inputs.records.len())].to_vec();
    let load = |group: &mut AcgIndexGroup| {
        let ops = acg_records.iter().cloned().map(IndexOp::Upsert).collect();
        group.enqueue_batch(ops, Timestamp::EPOCH).is_ok() && group.commit(Timestamp::EPOCH).is_ok()
    };

    // query: plan + exec per access path on a pinned epoch.
    let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
    out.tally.record(load(&mut group));
    let epoch = group.pin();
    let time_exec = |request: &SearchRequest, path: &'static str, out: &mut Layers| {
        let start = Instant::now();
        let (hits, _) = execute_request(&epoch, request);
        out.exec_us.entry(path).or_default().push(us_since(start));
        std::hint::black_box(hits);
    };
    for _ in 0..8 {
        for q in &inputs.pool {
            let start = Instant::now();
            let plan = plan_request(&*epoch, &q.request);
            out.plan_us.push(us_since(start));
            time_exec(&q.request, path_name(&plan.path), out);
        }
    }
    for (path, probe) in PATHS.iter().zip(path_probes()) {
        if out.exec_us.get(path).map_or(0, Sample::len) >= 8 {
            continue;
        }
        let planned = path_name(&plan_request(&*epoch, &probe).path);
        for _ in 0..8 {
            time_exec(&probe, planned, out);
        }
    }

    // index: enqueue + commit on an in-memory group.
    let mut gen = RecordGen::new(seed ^ 0x1DE, spec.corpus);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1DE);
    for round in 0..200u64 {
        let ops = gen::update_batch(&mut gen, &acg_records, &mut rng, BATCH_OPS);
        let now = Timestamp::from_secs(round);
        let start = Instant::now();
        let ok = group.enqueue_batch(ops, now).is_ok();
        out.enqueue_us_per_op.push(us_since(start) / BATCH_OPS as f64);
        let start = Instant::now();
        let ok = ok && group.commit(now).is_ok();
        out.commit_us.push(us_since(start));
        out.tally.record(ok);
    }

    // index: file-backed WAL append + fsync of encoded batches.
    let _ = std::fs::create_dir_all(dir);
    match Wal::open(dir.join("probe.wal")) {
        Ok(mut wal) => {
            for _ in 0..200 {
                let ops = gen::update_batch(&mut gen, &acg_records, &mut rng, BATCH_OPS);
                let frame = IndexOp::encode_batch(&ops);
                let before = wal.byte_size();
                let start = Instant::now();
                let ok = wal.append(&frame).is_ok();
                out.wal_append_us.push(us_since(start));
                let start = Instant::now();
                let ok = ok && wal.sync().is_ok();
                out.wal_sync_us.push(us_since(start));
                out.wal_bytes_per_op.push((wal.byte_size() - before) as f64 / BATCH_OPS as f64);
                out.tally.record(ok);
            }
        }
        Err(_) => out.tally.record(false),
    }

    // index: snapshot of a durable group, after a batch each time.
    let snap_dir = dir.join("snapshots");
    let _ = std::fs::create_dir_all(&snap_dir);
    match Wal::open(dir.join("snapshot-group.wal")) {
        Ok(wal) => {
            let config =
                GroupConfig { wal, snapshot_dir: Some(snap_dir), ..GroupConfig::default() };
            let mut durable = AcgIndexGroup::new(AcgId::new(2), config);
            out.tally.record(load(&mut durable));
            for round in 0..20u64 {
                let ops = gen::update_batch(&mut gen, &acg_records, &mut rng, BATCH_OPS);
                let ok = durable.enqueue_batch(ops, Timestamp::from_secs(round)).is_ok()
                    && durable.commit(Timestamp::from_secs(round)).is_ok();
                let start = Instant::now();
                let ok = ok && matches!(durable.snapshot(), Ok(Some(_)));
                out.snapshot_us.push(us_since(start));
                out.tally.record(ok);
            }
        }
        Err(_) => out.tally.record(false),
    }
    let _ = std::fs::remove_dir_all(dir);
}
