//! Output checks. Attribute workloads on a static corpus compare every
//! response with the exact top-k computed by brute force over the
//! generated records; relevance responses are checked for predicate,
//! limit, order and duplicates, plus the exact hit count; responses served
//! while writes run are checked structurally.

use std::collections::{HashMap, HashSet};

use propeller_index::{record_tokens, FileRecord};
use propeller_query::{
    matches_record, ContainsMode, Hit, Predicate, Projection, SearchRequest, SortKey, TopK,
};
use propeller_types::{FileId, Value};

/// What a correct response to one pool query looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these files, in this order.
    Exact(Vec<FileId>),
    /// This many hits, each containing the query terms.
    Count(usize),
    /// Only the structural properties (the corpus changes underneath).
    Structural,
}

/// The exact result of `request` over `records`, by brute force.
pub fn oracle<'a>(
    records: impl Iterator<Item = &'a FileRecord>,
    request: &SearchRequest,
) -> Vec<FileId> {
    let mut topk = TopK::new(request.sort.clone(), request.limit);
    for record in records {
        if matches_record(record, &request.predicate) {
            topk.push(Hit::of_record(record, None, &request.sort, &Projection::Ids));
        }
    }
    topk.into_sorted().into_iter().map(|h| h.file).collect()
}

/// Each record's distinct tokens (as interned ids), tokenized once with the
/// index's own tokenizer so `contains` checks need no per-query re-scan.
pub struct TokenSets {
    ids: HashMap<String, u32>,
    per_file: HashMap<FileId, Vec<u32>>,
}

impl TokenSets {
    pub fn new(records: &[FileRecord]) -> Self {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut per_file = HashMap::with_capacity(records.len());
        for record in records {
            let mut set: Vec<u32> = record_tokens(record)
                .into_iter()
                .map(|tok| {
                    let next = ids.len() as u32;
                    *ids.entry(tok).or_insert(next)
                })
                .collect();
            set.sort_unstable();
            set.dedup();
            per_file.insert(record.file, set);
        }
        TokenSets { ids, per_file }
    }

    /// Whether `file` satisfies a `contains` predicate.
    pub fn matches(&self, file: FileId, terms: &[String], mode: ContainsMode) -> bool {
        let Some(set) = self.per_file.get(&file) else { return false };
        let has = |t: &String| self.ids.get(t).is_some_and(|id| set.binary_search(id).is_ok());
        match mode {
            ContainsMode::Any => terms.iter().any(has),
            _ => terms.iter().all(has),
        }
    }

    /// How many files satisfy a `contains` predicate.
    pub fn count(&self, terms: &[String], mode: ContainsMode) -> usize {
        self.per_file.keys().filter(|&&f| self.matches(f, terms, mode)).count()
    }
}

fn contains_terms(pred: &Predicate) -> Option<(&[String], ContainsMode)> {
    match pred {
        Predicate::Contains { terms, mode } => Some((terms.as_slice(), *mode)),
        _ => None,
    }
}

/// The expected outcome of `request` on a static corpus.
pub fn expect_static(
    records: &[FileRecord],
    tokens: Option<&TokenSets>,
    request: &SearchRequest,
) -> Expect {
    match (tokens, contains_terms(&request.predicate)) {
        (Some(tokens), Some((terms, mode))) => {
            let n = tokens.count(terms, mode);
            Expect::Count(request.limit.map_or(n, |k| n.min(k)))
        }
        _ => Expect::Exact(oracle(records.iter(), request)),
    }
}

/// The sort-attribute conjuncts of a predicate: every hit's sort key must
/// satisfy them, whatever the corpus looks like.
fn sort_key_ok(request: &SearchRequest, key: Option<&Value>) -> bool {
    let Some(attr) = request.sort.attr() else { return true };
    let Some(key) = key else { return false };
    request.predicate.conjuncts().into_iter().all(|c| match c {
        Predicate::Compare { attr: a, op, value } if a == attr => op.eval(key, value),
        _ => true,
    })
}

/// Whether `hits` is a correct response to `request`.
pub fn check(
    request: &SearchRequest,
    expect: &Expect,
    hits: &[Hit],
    tokens: Option<&TokenSets>,
) -> bool {
    if request.limit.is_some_and(|k| hits.len() > k) {
        return false;
    }
    let mut seen = HashSet::with_capacity(hits.len());
    if !hits.iter().all(|h| seen.insert(h.file)) {
        return false;
    }
    if !hits.windows(2).all(|w| request.sort.cmp_hits(&w[0], &w[1]).is_lt()) {
        return false;
    }
    if request.sort == SortKey::Relevance
        && !hits.iter().all(|h| matches!(h.sort_key, Some(Value::F64(s)) if s.is_finite()))
    {
        return false;
    }
    if !hits.iter().all(|h| sort_key_ok(request, h.sort_key.as_ref())) {
        return false;
    }
    match expect {
        Expect::Exact(ids) => {
            hits.len() == ids.len() && hits.iter().zip(ids).all(|(h, id)| h.file == *id)
        }
        Expect::Count(n) => {
            let (Some(tokens), Some((terms, mode))) = (tokens, contains_terms(&request.predicate))
            else {
                return false;
            };
            hits.len() == *n && hits.iter().all(|h| tokens.matches(h.file, terms, mode))
        }
        Expect::Structural => true,
    }
}
