//! Deterministic inputs. Every record, query and change batch is derived
//! from the `--seed`; the cluster only ever sees these generated values.

use propeller_index::{FileRecord, IndexOp};
use propeller_query::{CompareOp, ContainsMode, Predicate, SearchRequest, SortKey};
use propeller_types::{AttrName, FileId, InodeAttrs, Timestamp, Value};
use propeller_workloads::ZipfTerms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct `tag<n>` keywords shared across the namespace.
pub const TAGS: u64 = 500;
/// Files are written in id order, one every this many seconds: mtime
/// follows creation order, so the newest files sit in the newest ACGs.
pub const SECS_PER_FILE: u64 = 50;
/// Spread of each file's mtime around its creation slot (~2,000 files).
pub const MTIME_JITTER_S: u64 = 100_000;
/// Vocabulary and Zipf exponent of the content corpus.
pub const VOCABULARY: usize = 10_000;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Query instances generated per query class.
pub const POOL_PER_CLASS: usize = 48;

/// What the generated files carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// size, mtime, uid and keywords.
    Attr,
    /// The attribute set plus a Zipf-drawn text body.
    Content,
}

/// A seeded stream of records.
pub struct RecordGen {
    rng: StdRng,
    corpus: Corpus,
    vocab: ZipfTerms,
}

impl RecordGen {
    pub fn new(seed: u64, corpus: Corpus) -> Self {
        RecordGen {
            rng: StdRng::seed_from_u64(seed ^ 0x05EE_D0FF_11E5),
            corpus,
            vocab: ZipfTerms::new(VOCABULARY, ZIPF_EXPONENT),
        }
    }

    /// A log-uniform size between 1 KiB and 16 GiB.
    fn size(&mut self) -> u64 {
        let exp: u32 = self.rng.gen_range(10u32..34);
        (1u64 << exp) + self.rng.gen_range(0..(1u64 << exp))
    }

    /// Attributes of a file last written at creation slot `slot`.
    pub fn attrs(&mut self, slot: u64) -> InodeAttrs {
        let mtime = slot * SECS_PER_FILE + self.rng.gen_range(0..MTIME_JITTER_S);
        InodeAttrs::builder()
            .size(self.size())
            .mtime(Timestamp::from_secs(mtime))
            .uid(self.rng.gen_range(0u32..64))
            .build()
    }

    /// File `id`: a shared `tag<n>` keyword, a unique `f<id>` name
    /// keyword, and (content corpus) a body of 8–64 Zipf-drawn terms.
    pub fn record(&mut self, id: u64) -> FileRecord {
        let tag = self.rng.gen_range(0..TAGS);
        let mut record = FileRecord::new(FileId::new(id), self.attrs(id))
            .with_keyword(format!("tag{tag}"))
            .with_keyword(name_keyword(FileId::new(id)));
        if self.corpus == Corpus::Content {
            let len = self.rng.gen_range(8usize..=64);
            record = record.with_content(self.vocab.document(&mut self.rng, len));
        }
        record
    }

    /// The same file rewritten at creation slot `slot`: fresh size, mtime
    /// and uid.
    pub fn updated(&mut self, old: &FileRecord, slot: u64) -> FileRecord {
        let mut record = old.clone();
        record.attrs = self.attrs(slot);
        record
    }
}

/// The unique name keyword of a file (point reads in the durability check).
pub fn name_keyword(file: FileId) -> String {
    format!("f{}", file.raw())
}

/// Files `0..n` of the corpus.
pub fn records(seed: u64, corpus: Corpus, n: u64) -> Vec<FileRecord> {
    let mut gen = RecordGen::new(seed, corpus);
    (0..n).map(|id| gen.record(id)).collect()
}

/// One query of the workload mix.
#[derive(Debug, Clone)]
pub struct MixQuery {
    /// Index into the mix's class list.
    pub class: usize,
    pub request: SearchRequest,
}

/// Names of the attribute mix's classes, in class-index order.
pub const ATTR_CLASSES: [&str; 6] = [
    "top100_size",
    "top10_mtime",
    "box_top50",
    "keyword_residual",
    "box_unlimited",
    "top100_mtime",
];

/// Names of the content mix's classes, in class-index order.
pub const CONTENT_CLASSES: [&str; 8] = [
    "all_head_tail_k10",
    "all_head_tail_k100",
    "all_head_head_k10",
    "all_head_head_k100",
    "any_head_tail_k10",
    "any_head_tail_k100",
    "any_head_head_k10",
    "any_head_head_k100",
];

fn cmp(attr: AttrName, op: CompareOp, value: u64) -> Predicate {
    Predicate::cmp(attr, op, Value::U64(value))
}

fn mtime_us(secs: u64) -> u64 {
    Timestamp::from_secs(secs).as_micros()
}

/// The attribute mix over a namespace of `files` files: sorted top-100 by
/// size over a wide range, top-10 by mtime, a narrow size/mtime box
/// (top-50), keyword equality plus a residual size predicate, one
/// unlimited narrow box, and the top-100 newest files before a point in
/// time (hits concentrate on the nodes holding that period's ACGs, so the
/// streamed search pulls past the first page).
pub fn attr_mix(seed: u64, files: u64) -> Vec<MixQuery> {
    let span = files * SECS_PER_FILE;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77_0000);
    let mut out = Vec::new();
    for _ in 0..POOL_PER_CLASS {
        let lo = 1u64 << rng.gen_range(20u32..24);
        let hi = 1u64 << rng.gen_range(32u32..34);
        out.push(MixQuery {
            class: 0,
            request: SearchRequest::new(Predicate::and(vec![
                cmp(AttrName::Size, CompareOp::Ge, lo),
                cmp(AttrName::Size, CompareOp::Le, hi),
            ]))
            .with_limit(100)
            .sorted_by(SortKey::Descending(AttrName::Size)),
        });
        let t0 = rng.gen_range(0..span / 2);
        out.push(MixQuery {
            class: 1,
            request: SearchRequest::new(cmp(AttrName::Mtime, CompareOp::Ge, mtime_us(t0)))
                .with_limit(10)
                .sorted_by(SortKey::Descending(AttrName::Mtime)),
        });
        let a = 1u64 << rng.gen_range(12u32..32);
        let c = rng.gen_range(0..span - span / 10);
        out.push(MixQuery {
            class: 2,
            request: SearchRequest::new(box_predicate(a, a + a / 2, c, c + span / 10))
                .with_limit(50)
                .sorted_by(SortKey::Ascending(AttrName::Size)),
        });
        let tag = rng.gen_range(0..TAGS);
        let floor = 1u64 << rng.gen_range(18u32..26);
        out.push(MixQuery {
            class: 3,
            request: SearchRequest::new(Predicate::and(vec![
                Predicate::Keyword(format!("tag{tag}")),
                cmp(AttrName::Size, CompareOp::Ge, floor),
            ]))
            .with_limit(20)
            .sorted_by(SortKey::Descending(AttrName::Mtime)),
        });
        let a = 1u64 << rng.gen_range(12u32..32);
        let c = rng.gen_range(0..span - span / 20);
        out.push(MixQuery {
            class: 4,
            request: SearchRequest::new(box_predicate(a, a + a / 10, c, c + span / 20)),
        });
        let before = rng.gen_range(span / 4..span);
        out.push(MixQuery {
            class: 5,
            request: SearchRequest::new(cmp(AttrName::Mtime, CompareOp::Le, mtime_us(before)))
                .with_limit(100)
                .sorted_by(SortKey::Descending(AttrName::Mtime)),
        });
    }
    out
}

fn box_predicate(size_lo: u64, size_hi: u64, mtime_lo_s: u64, mtime_hi_s: u64) -> Predicate {
    Predicate::and(vec![
        cmp(AttrName::Size, CompareOp::Ge, size_lo),
        cmp(AttrName::Size, CompareOp::Le, size_hi),
        cmp(AttrName::Mtime, CompareOp::Ge, mtime_us(mtime_lo_s)),
        cmp(AttrName::Mtime, CompareOp::Le, mtime_us(mtime_hi_s)),
    ])
}

/// Head terms are Zipf ranks `0..16`; tail terms ranks `300..3000`.
fn head(rng: &mut StdRng) -> usize {
    rng.gen_range(0..16)
}

fn tail(rng: &mut StdRng) -> usize {
    rng.gen_range(300..3000)
}

/// The content mix: `contains` and `contains-any` over a head+tail or a
/// head+head term pair, at k=10 and k=100, ranked by BM25 relevance.
pub fn content_mix(seed: u64) -> Vec<MixQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4E47);
    let mut out = Vec::new();
    for _ in 0..POOL_PER_CLASS {
        for (class, _) in CONTENT_CLASSES.iter().enumerate() {
            let mode = if class < 4 { ContainsMode::All } else { ContainsMode::Any };
            let first = head(&mut rng);
            let second = if class % 4 < 2 {
                tail(&mut rng)
            } else {
                let mut other = head(&mut rng);
                while other == first {
                    other = head(&mut rng);
                }
                other
            };
            let k = if class % 2 == 0 { 10 } else { 100 };
            out.push(MixQuery {
                class,
                request: SearchRequest::new(Predicate::contains(
                    vec![ZipfTerms::term(first), ZipfTerms::term(second)],
                    mode,
                ))
                .with_limit(k)
                .sorted_by(SortKey::Relevance),
            });
        }
    }
    out
}

/// The kind of one change in the `ingest_mixed` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    Create,
    Update,
    Remove,
}

/// Draws a change kind: ~50% creates, ~45% updates, ~5% removes.
pub fn draw_change(rng: &mut StdRng) -> Change {
    match rng.gen_range(0u32..100) {
        0..=49 => Change::Create,
        50..=94 => Change::Update,
        _ => Change::Remove,
    }
}

/// A batch of upserts of existing files with fresh attributes, as the
/// standalone index probes replay it.
pub fn update_batch(
    gen: &mut RecordGen,
    pool: &[FileRecord],
    rng: &mut StdRng,
    n: usize,
) -> Vec<IndexOp> {
    (0..n)
        .map(|_| {
            let old = &pool[rng.gen_range(0..pool.len())];
            IndexOp::Upsert(gen.updated(old, pool.len() as u64))
        })
        .collect()
}
