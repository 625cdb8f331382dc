//! The three workloads: cluster set-up, the measured window (closed-loop
//! searchers, the open-loop writer, once-a-second maintenance), restarts
//! and the post-restart durability check.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use propeller_cluster::{Cluster, ClusterConfig, FileQueryEngine, MetricsSnapshot};
use propeller_index::{FileRecord, IndexOp};
use propeller_query::{Hit, Predicate, Projection, SearchRequest, SearchStats};
use propeller_types::{AttrName, FileId, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::check::{check, expect_static, oracle, Expect, TokenSets};
use crate::gen::{self, Change, Corpus, MixQuery, RecordGen};
use crate::stats::Sample;

/// Snapshot trigger of every durable group: ops logged since its last
/// snapshot. Low enough that the ingest window takes background snapshots.
pub const SNAPSHOT_WAL_OPS: u64 = 500;
/// The client's route-cache capacity (entries), for the key-space ratio.
pub const ROUTE_CACHE_CAPACITY: usize = 65_536;

/// The open-loop change stream of `ingest_mixed`.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    pub batch_ops: usize,
    pub interval: Duration,
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub corpus: Corpus,
    pub files: u64,
    pub nodes: usize,
    pub acgs_per_node: usize,
    pub replication: usize,
    pub preload_batch: usize,
    /// Closed-loop search threads.
    pub searchers: usize,
    pub writer: Option<Writer>,
    /// Full set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
    /// Restarts per run (`recovery_s` is their median).
    pub restarts: usize,
    /// Durability-check reads per change kind.
    pub durability_sample: usize,
}

pub const WORKLOADS: [&str; 3] = ["attr_topk", "content_ranked", "ingest_mixed"];

pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let files = |full: u64| if tiny { 4_000 } else { full };
    let base = Spec {
        name: "",
        corpus: Corpus::Attr,
        files: files(200_000),
        nodes: 4,
        acgs_per_node: if tiny { 4 } else { 25 },
        replication: 1,
        preload_batch: if tiny { 250 } else { 1_000 },
        searchers: 2,
        writer: None,
        setups: if tiny { 2 } else { 3 },
        restarts: if tiny { 2 } else { 3 },
        durability_sample: if tiny { 20 } else { 150 },
    };
    Some(match name {
        "attr_topk" => Spec { name: "attr_topk", ..base },
        // ACGs of 1,000 documents span about 16 skip blocks per head term,
        // so block-max skipping has blocks to skip; several ACGs keep the
        // per-ACG WAND threshold visible. Set-up and restart take a
        // fraction of a second here, so more of them steady the medians.
        "content_ranked" => Spec {
            name: "content_ranked",
            corpus: Corpus::Content,
            files: files(8_000),
            acgs_per_node: 2,
            preload_batch: if tiny { 250 } else { 500 },
            setups: if tiny { 2 } else { 9 },
            restarts: if tiny { 2 } else { 9 },
            ..base
        },
        "ingest_mixed" => Spec {
            name: "ingest_mixed",
            replication: 2,
            searchers: 1,
            writer: Some(Writer { batch_ops: 10, interval: Duration::from_millis(40) }),
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn group_capacity(&self) -> usize {
        (self.files as usize / (self.nodes * self.acgs_per_node)).max(1)
    }

    pub fn config(&self, seed: u64, data_dir: &Path) -> ClusterConfig {
        ClusterConfig {
            index_nodes: self.nodes,
            group_capacity: self.group_capacity(),
            replication: self.replication,
            seed,
            data_dir: Some(data_dir.to_path_buf()),
            snapshot_wal_ops: SNAPSHOT_WAL_OPS,
            ..ClusterConfig::default()
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub records: Vec<FileRecord>,
    pub pool: Vec<MixQuery>,
    /// Parallel to `pool`.
    pub expect: Vec<Expect>,
    pub tokens: Option<TokenSets>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let records = gen::records(seed, spec.corpus, spec.files);
        let pool = match spec.corpus {
            Corpus::Attr => gen::attr_mix(seed, spec.files),
            Corpus::Content => gen::content_mix(seed),
        };
        let tokens = (spec.corpus == Corpus::Content).then(|| TokenSets::new(&records));
        let expect = pool
            .iter()
            .map(|q| {
                if spec.writer.is_some() {
                    Expect::Structural
                } else {
                    expect_static(&records, tokens.as_ref(), &q.request)
                }
            })
            .collect();
        Inputs { records, pool, expect, tokens }
    }

    /// The set-up and recovery probe: the first pool query, with its
    /// exact expected result over `live` records.
    pub fn probe(&self, live: Option<&HashMap<FileId, FileRecord>>) -> (SearchRequest, Expect) {
        let request = self.pool[0].request.clone();
        let expect = match live {
            Some(live) => Expect::Exact(oracle(live.values(), &request)),
            None => self.expect[0].clone(),
        };
        (request, expect)
    }
}

/// Running tallies of operations attempted and failed (errors and wrong
/// outputs alike).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Searches `request` until the response checks out (bounded retries).
/// Returns whether it did.
fn first_correct_search(
    client: &FileQueryEngine,
    request: &SearchRequest,
    expect: &Expect,
    tokens: Option<&TokenSets>,
) -> bool {
    for _ in 0..200 {
        if let Ok(resp) = client.search_with(request) {
            if check(request, expect, &resp.hits, tokens) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A cluster that finished set-up.
pub struct Ready {
    pub cluster: Cluster,
    /// The client that preloaded the corpus (its route cache is warm);
    /// the `ingest_mixed` writer keeps using it.
    pub loader: FileQueryEngine,
    pub setup_s: f64,
    /// Per-batch preload latency, send to ack, ms.
    pub preload_lag_ms: Sample,
}

/// Starts a durable cluster in `dir`, preloads the corpus and waits for
/// the first correct search; the timed span is `setup_s`.
pub fn setup(spec: &Spec, seed: u64, inputs: &Inputs, dir: &Path, tally: &mut Tally) -> Ready {
    let _ = std::fs::remove_dir_all(dir);
    let (probe, expect) = inputs.probe(None);
    let start = Instant::now();
    let cluster = Cluster::start(spec.config(seed, dir));
    let mut loader = cluster.client();
    let mut preload_lag_ms = Sample::default();
    for chunk in inputs.records.chunks(spec.preload_batch) {
        let batch = chunk.to_vec();
        let sent = Instant::now();
        let ok = loader.index_files(batch).is_ok();
        preload_lag_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        tally.record(ok);
    }
    let ok = first_correct_search(&loader, &probe, &expect, inputs.tokens.as_ref());
    let setup_s = start.elapsed().as_secs_f64();
    tally.record(ok);
    Ready { cluster, loader, setup_s, preload_lag_ms }
}

/// The live namespace the `ingest_mixed` writer mutates, and the last
/// acknowledged change of every file it touched.
pub struct Namespace {
    pub live: HashMap<FileId, FileRecord>,
    ids: Vec<FileId>,
    pos: HashMap<FileId, usize>,
    next_id: u64,
    pub last: HashMap<FileId, Change>,
    /// Files of batches that failed: their state is unknown.
    pub uncertain: HashSet<FileId>,
}

impl Namespace {
    pub fn new(records: &[FileRecord]) -> Self {
        let ids: Vec<FileId> = records.iter().map(|r| r.file).collect();
        Namespace {
            pos: ids.iter().enumerate().map(|(i, &f)| (f, i)).collect(),
            live: records.iter().map(|r| (r.file, r.clone())).collect(),
            next_id: records.len() as u64,
            ids,
            last: HashMap::new(),
            uncertain: HashSet::new(),
        }
    }

    fn pick(&self, rng: &mut StdRng, taken: &HashSet<FileId>) -> Option<FileId> {
        (0..8).map(|_| self.ids[rng.gen_range(0..self.ids.len())]).find(|f| !taken.contains(f))
    }

    fn drop_id(&mut self, file: FileId) {
        if let Some(i) = self.pos.remove(&file) {
            self.ids.swap_remove(i);
            if let Some(&moved) = self.ids.get(i) {
                self.pos.insert(moved, i);
            }
        }
    }

    /// The next batch: upserts (creates and updates) and removes over
    /// distinct files.
    fn batch(&mut self, gen: &mut RecordGen, rng: &mut StdRng, n: usize) -> Batch {
        let mut batch = Batch::default();
        let mut taken = HashSet::new();
        for _ in 0..n {
            let change = gen::draw_change(rng);
            let file = match change {
                Change::Create => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let record = gen.record(id);
                    batch.upserts.push(record);
                    FileId::new(id)
                }
                Change::Update | Change::Remove => {
                    let Some(file) = self.pick(rng, &taken) else { continue };
                    if change == Change::Update {
                        batch.upserts.push(gen.updated(&self.live[&file], self.next_id));
                    } else {
                        batch.removes.push(file);
                    }
                    file
                }
            };
            taken.insert(file);
            batch.changes.push((file, change));
        }
        batch
    }

    /// Applies an acknowledged (or failed) batch to the model.
    fn apply(&mut self, batch: Batch, ok: bool) {
        for (file, change) in &batch.changes {
            if !ok {
                self.uncertain.insert(*file);
            }
            self.last.insert(*file, *change);
        }
        for record in batch.upserts {
            let file = record.file;
            if self.live.insert(file, record).is_none() {
                self.pos.insert(file, self.ids.len());
                self.ids.push(file);
            }
        }
        for file in batch.removes {
            self.live.remove(&file);
            self.drop_id(file);
        }
    }
}

#[derive(Default)]
struct Batch {
    upserts: Vec<FileRecord>,
    removes: Vec<FileId>,
    changes: Vec<(FileId, Change)>,
}

/// One measured search: which pool query, its latency, and the response.
pub struct SearchOutcome {
    pub query: usize,
    /// When the search started, as an offset into the window (s).
    pub at_s: f64,
    pub ms: f64,
    pub hits: Option<Vec<Hit>>,
}

/// Aggregated `SearchStats` of the window's searches.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatSums {
    pub searches: u64,
    pub hits: u64,
    pub candidates: u64,
    pub acgs: u64,
    pub wand_docs_pruned: u64,
    pub wand_blocks_skipped: u64,
    pub pages: u64,
    pub hits_shipped: u64,
}

impl StatSums {
    fn absorb(&mut self, stats: &SearchStats, hits: usize) {
        self.searches += 1;
        self.hits += hits as u64;
        self.candidates += stats.candidates_scanned as u64;
        self.acgs += stats.acgs_consulted as u64;
        self.wand_docs_pruned += stats.wand_docs_pruned as u64;
        self.wand_blocks_skipped += stats.wand_blocks_skipped as u64;
        self.pages += stats.pages_pulled as u64;
        self.hits_shipped += stats.hits_shipped as u64;
    }

    fn add(&mut self, o: &StatSums) {
        self.searches += o.searches;
        self.hits += o.hits;
        self.candidates += o.candidates;
        self.acgs += o.acgs;
        self.wand_docs_pruned += o.wand_docs_pruned;
        self.wand_blocks_skipped += o.wand_blocks_skipped;
        self.pages += o.pages;
        self.hits_shipped += o.hits_shipped;
    }
}

/// What the measured window produced.
pub struct Window {
    pub seconds: f64,
    pub searches: Vec<SearchOutcome>,
    pub sums: StatSums,
    /// Open-loop batch lag, scheduled send to ack, ms.
    pub ingest_lag_ms: Sample,
    /// How late the load generator ran its scheduled actions (batches and
    /// maintenance ticks), ms.
    pub late_ms: Sample,
    pub metrics_start: MetricsSnapshot,
    pub metrics_end: MetricsSnapshot,
    /// Route-cache hits and misses of the writing client over the window.
    pub route_hits: u64,
    pub route_misses: u64,
    pub tally: Tally,
}

fn route_counts(client: &FileQueryEngine) -> (u64, u64) {
    let snap = client.obs().metrics.snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (get(propeller_obs::names::ROUTE_CACHE_HITS), get(propeller_obs::names::ROUTE_CACHE_MISSES))
}

fn search_loop(
    client: FileQueryEngine,
    pool: &[MixQuery],
    seed: u64,
    deadline: Instant,
) -> (Vec<SearchOutcome>, StatSums) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut sums = StatSums::default();
    let window_start = Instant::now();
    while Instant::now() < deadline {
        let query = rng.gen_range(0..pool.len());
        let start = Instant::now();
        let at_s = start.duration_since(window_start).as_secs_f64();
        let resp = client.search_with(&pool[query].request);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let hits = match resp {
            Ok(resp) => {
                sums.absorb(&resp.stats, resp.hits.len());
                Some(resp.hits)
            }
            Err(_) => None,
        };
        out.push(SearchOutcome { query, at_s, ms, hits });
    }
    (out, sums)
}

/// Output of the open-loop writer thread.
struct WriterOut {
    ns: Namespace,
    lag_ms: Sample,
    late_ms: Sample,
    tally: Tally,
    route: (u64, u64),
}

fn write_loop(
    mut client: FileQueryEngine,
    mut ns: Namespace,
    writer: Writer,
    seed: u64,
    start: Instant,
    deadline: Instant,
    stop: &AtomicBool,
) -> WriterOut {
    let mut gen = RecordGen::new(seed ^ 0x0E11, Corpus::Attr);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0C4A);
    let (mut lag_ms, mut late_ms, mut tally) =
        (Sample::default(), Sample::default(), Tally::default());
    let route_start = route_counts(&client);
    for i in 0u32.. {
        let due = start + writer.interval * i;
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let batch = ns.batch(&mut gen, &mut rng, writer.batch_ops);
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let upserts = batch.upserts.clone();
        let removes = batch.removes.clone();
        let ok = (upserts.is_empty() || client.index_files(upserts).is_ok())
            && (removes.is_empty() || client.remove_files(removes).is_ok());
        if due < deadline {
            lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        tally.record(ok);
        ns.apply(batch, ok);
    }
    let route_end = route_counts(&client);
    let route = (route_end.0 - route_start.0, route_end.1 - route_start.1);
    WriterOut { ns, lag_ms, late_ms, tally, route }
}

/// Runs the measured window: `spec.searchers` closed-loop search threads,
/// the open-loop writer (if any), and `run_maintenance` once a second on
/// the calling thread, which plays the cluster's background coordinator.
/// `after` runs once the searchers stopped, while the writer still runs
/// (the traced phase).
pub fn window(
    spec: &Spec,
    ready: Ready,
    inputs: &Inputs,
    ns: Option<Namespace>,
    seed: u64,
    seconds: f64,
    after: impl FnOnce(&Cluster),
) -> (Cluster, Window, Option<Namespace>) {
    let Ready { cluster, loader, .. } = ready;
    let stop = AtomicBool::new(false);
    let metrics_start = cluster.metrics_snapshot();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut late_ms = Sample::default();
    let mut tally = Tally::default();
    let (searches, sums, writer_out, metrics_end) = std::thread::scope(|s| {
        let searchers: Vec<_> = (0..spec.searchers)
            .map(|t| {
                let client = cluster.client();
                let pool = &inputs.pool;
                s.spawn(move || search_loop(client, pool, seed ^ (t as u64 + 1) << 32, deadline))
            })
            .collect();
        let writer = match (spec.writer, ns) {
            (Some(w), Some(ns)) => {
                let stop = &stop;
                Some(s.spawn(move || write_loop(loader, ns, w, seed, start, deadline, stop)))
            }
            _ => None,
        };
        for tick in 1u32.. {
            let due = start + Duration::from_secs(tick.into());
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            tally.record(cluster.run_maintenance().is_ok());
        }
        let mut searches = Vec::new();
        let mut sums = StatSums::default();
        for h in searchers {
            let (outcomes, part) = h.join().expect("search thread panicked");
            searches.extend(outcomes);
            sums.add(&part);
        }
        let metrics_end = cluster.metrics_snapshot();
        after(&cluster);
        stop.store(true, Ordering::Relaxed);
        let writer_out = writer.map(|h| h.join().expect("writer thread panicked"));
        (searches, sums, writer_out, metrics_end)
    });
    let mut win = Window {
        seconds,
        searches,
        sums,
        ingest_lag_ms: Sample::default(),
        late_ms,
        metrics_start,
        metrics_end,
        route_hits: 0,
        route_misses: 0,
        tally,
    };
    let ns = writer_out.map(|w| {
        win.ingest_lag_ms = w.lag_ms;
        win.late_ms.extend(&w.late_ms);
        win.tally.add(w.tally);
        (win.route_hits, win.route_misses) = w.route;
        w.ns
    });
    (cluster, win, ns)
}

/// Checks every response of the window; returns the tally.
pub fn check_searches(win: &Window, inputs: &Inputs) -> Tally {
    let mut tally = Tally::default();
    for outcome in &win.searches {
        let q = &inputs.pool[outcome.query];
        let ok = outcome.hits.as_ref().is_some_and(|hits| {
            check(&q.request, &inputs.expect[outcome.query], hits, inputs.tokens.as_ref())
        });
        tally.record(ok);
    }
    tally
}

/// Restarts the cluster from its data dir and waits for the first correct
/// search; returns the cluster and the elapsed seconds.
pub fn restart(
    cluster: Cluster,
    probe: &SearchRequest,
    expect: &Expect,
    tokens: Option<&TokenSets>,
    tally: &mut Tally,
) -> (Cluster, f64) {
    let start = Instant::now();
    let cluster = cluster.restart();
    let client = cluster.client();
    let ok = first_correct_search(&client, probe, expect, tokens);
    let secs = start.elapsed().as_secs_f64();
    tally.record(ok);
    (cluster, secs)
}

/// After a restart, reads back a sample of the acknowledged creates,
/// updates and removes by their unique name keyword: each must read back
/// exactly as last acknowledged.
pub fn durability_check(cluster: &Cluster, ns: &Namespace, per_kind: usize, seed: u64) -> Tally {
    let client = cluster.client();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_4AB1);
    let mut tally = Tally::default();
    let attrs = vec![AttrName::Size, AttrName::Mtime, AttrName::Uid];
    for kind in [Change::Create, Change::Update, Change::Remove] {
        let mut files: Vec<FileId> = ns
            .last
            .iter()
            .filter(|(f, c)| **c == kind && !ns.uncertain.contains(f))
            .map(|(f, _)| *f)
            .collect();
        files.sort_unstable();
        files.shuffle(&mut rng);
        for &file in files.iter().take(per_kind) {
            let request = SearchRequest::new(Predicate::Keyword(gen::name_keyword(file)))
                .with_projection(Projection::Attrs(attrs.clone()));
            let ok = match client.search_with(&request) {
                Ok(resp) => match ns.live.get(&file) {
                    None => resp.hits.is_empty(),
                    Some(record) => {
                        let want: Vec<(AttrName, Value)> = attrs
                            .iter()
                            .filter_map(|a| record.attrs.get(a).map(|v| (a.clone(), v)))
                            .collect();
                        resp.hits.len() == 1
                            && resp.hits[0].file == file
                            && resp.hits[0].attrs == want
                    }
                },
                Err(_) => false,
            };
            tally.record(ok);
        }
    }
    tally
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Encoded bytes of the live records (what one WAL upsert of each holds).
pub fn live_bytes<'a>(records: impl Iterator<Item = &'a FileRecord>) -> u64 {
    records.map(|r| IndexOp::Upsert(r.clone()).encode().len() as u64).sum()
}

/// A fresh scratch directory for one run, inside `root`.
pub fn scratch_dir(root: &Path, tag: &str) -> PathBuf {
    root.join(format!("{tag}-{}", std::process::id()))
}
