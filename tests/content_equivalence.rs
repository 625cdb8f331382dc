//! Equivalence property for content plans. Over random Zipf-ish corpora
//! and random `contains` / `contains-any` / `phrase` predicates — alone,
//! `&`-ed with attribute compares and with each other, and under `|` and
//! `!` — the streaming executor, the node-level executor and the
//! brute-force reference return identical hits, under relevance and size
//! sorts, random limits and random cursors. Sort keys compare with
//! `f64::total_cmp`, so equal hits carry bit-identical BM25 scores.
//!
//! This is the gate for the postings merge's residual predicate (the
//! `contains` conjuncts it proves are not re-checked per candidate) and for
//! its BM25 scorer, which reads tf off the merge cursors.

use propeller::index::{AcgEpoch, AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
use propeller::query::{
    execute_node_request_sequential, execute_request, execute_request_reference, merge_sorted_hits,
    CompareOp, ContainsMode, Cursor, Predicate, SearchRequest, SortKey,
};
use propeller::types::{AcgId, AttrName, FileId, InodeAttrs, Timestamp, Value};
use proptest::prelude::*;

fn now() -> Timestamp {
    Timestamp::from_secs(1_000)
}

/// Index tokens, most frequent first.
const VOCAB: &[&str] = &["the", "report", "sales", "quick", "brown", "fox", "zebra", "tax"];

/// Query terms no document holds as a token: an absent word, and strings
/// that are not index tokens at all (upper case, punctuation, empty, a
/// space).
const NON_TOKENS: &[&str] = &["absent", "Report", "sales!", "", "quick brown"];

/// Draws word `i` of [`VOCAB`] with probability about 2^-(i+1) for `u`
/// uniform in `1..256`, so head terms span several postings blocks and
/// tail terms are rare.
fn zipf_word(u: u32) -> &'static str {
    VOCAB[VOCAB.len() - 1 - u.ilog2() as usize]
}

/// Documents: a size, a content text of Zipf words joined by one of a few
/// separators (sometimes upper-cased: the tokenizer lowercases), and an
/// optional keyword — a second text field, so phrases can straddle fields.
fn arb_records() -> impl Strategy<Value = Vec<FileRecord>> {
    prop::collection::vec(
        (
            0u64..250,
            prop::collection::vec(1u32..256, 0..12),
            0usize..4,
            prop::bool::ANY,
            prop::collection::vec(1u32..256, 0..2),
        ),
        1..300,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (size, words, sep, shout, keyword))| {
                let words: Vec<&str> = words.into_iter().map(zipf_word).collect();
                let mut text = words.join([" ", ", ", " - ", "/"][sep]);
                if shout {
                    text = text.to_uppercase();
                }
                let mut rec = FileRecord::new(
                    FileId::new(i as u64),
                    InodeAttrs::builder().size(size).build(),
                )
                .with_content(text);
                if let Some(&u) = keyword.first() {
                    rec = rec.with_keyword(zipf_word(u));
                }
                rec
            })
            .collect()
    })
}

/// A query term: mostly a vocabulary word, uniformly drawn (so multi-term
/// queries mix head and tail terms, and repeat terms often), sometimes a
/// term no document holds.
fn arb_term() -> BoxedStrategy<String> {
    (0u32..10, 0usize..VOCAB.len(), 0usize..NON_TOKENS.len())
        .prop_map(|(pick, w, n)| if pick < 8 { VOCAB[w] } else { NON_TOKENS[n] }.to_owned())
        .boxed()
}

fn arb_contains() -> BoxedStrategy<Predicate> {
    (0u32..3, prop::collection::vec(arb_term(), 1..4))
        .prop_map(|(mode, terms)| {
            let mode = [ContainsMode::All, ContainsMode::Any, ContainsMode::Phrase][mode as usize];
            Predicate::Contains { terms, mode }
        })
        .boxed()
}

fn arb_compare() -> BoxedStrategy<Predicate> {
    (0u32..6, 0u64..250)
        .prop_map(|(op, v)| {
            let op = [
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ][op as usize];
            Predicate::cmp(AttrName::Size, op, Value::U64(v))
        })
        .boxed()
}

fn arb_predicate() -> BoxedStrategy<Predicate> {
    prop_oneof![
        arb_contains(),
        (arb_contains(), arb_compare()).prop_map(|(c, a)| Predicate::And(vec![c, a])),
        arb_two_contains(),
        arb_two_contains(),
        (arb_contains(), arb_compare()).prop_map(|(c, a)| Predicate::Or(vec![c, a])),
        (arb_contains(), arb_contains()).prop_map(|(c1, c2)| Predicate::Or(vec![c1, c2])),
        (arb_contains(), arb_contains())
            .prop_map(|(c1, c2)| Predicate::And(vec![c1, Predicate::Not(Box::new(c2))])),
        arb_contains().prop_map(|c| Predicate::Not(Box::new(c))),
    ]
    .boxed()
}

/// Two `contains` conjuncts, sometimes with an attribute compare: the
/// shapes where the merge proves one conjunct and must keep the other.
/// Listed twice in [`arb_predicate`] to weight it.
fn arb_two_contains() -> BoxedStrategy<Predicate> {
    (arb_contains(), arb_contains(), arb_compare(), prop::bool::ANY)
        .prop_map(|(c1, c2, a, with_attr)| {
            let mut conjuncts = vec![c1, c2];
            if with_attr {
                conjuncts.push(a);
            }
            Predicate::And(conjuncts)
        })
        .boxed()
}

fn committed_group(acg: u64, records: &[&FileRecord]) -> AcgIndexGroup {
    let mut g = AcgIndexGroup::new(AcgId::new(acg), GroupConfig::default());
    for rec in records {
        g.enqueue(IndexOp::Upsert((*rec).clone()), now()).unwrap();
    }
    g.commit(now()).unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One group: `execute_request` and `execute_node_request` (through
    /// its sequential entry point) equal the brute-force reference.
    /// Partitioned across ACGs: the node-level merge equals the merged
    /// per-ACG references (each ACG scores against its own corpus
    /// statistics).
    #[test]
    fn content_plans_match_the_reference_bit_for_bit(
        records in arb_records(),
        pred in arb_predicate(),
        acg_count in 1usize..4,
        limit in prop_oneof![
            (0u64..1).prop_map(|_| None),
            (0usize..40).prop_map(Some),
        ],
        cursor_at in prop_oneof![
            (0u64..1).prop_map(|_| None),
            (0usize..1000).prop_map(Some),
        ],
    ) {
        let all: Vec<&FileRecord> = records.iter().collect();
        let whole = committed_group(1, &all);
        let parts: Vec<AcgIndexGroup> = (0..acg_count)
            .map(|p| {
                let share: Vec<&FileRecord> =
                    records.iter().skip(p).step_by(acg_count).collect();
                committed_group(p as u64 + 10, &share)
            })
            .collect();
        let part_refs: Vec<&AcgEpoch> = parts.iter().map(|g| &**g).collect();

        for sort in [
            SortKey::Relevance,
            SortKey::Descending(AttrName::Size),
            SortKey::Ascending(AttrName::Size),
        ] {
            let mut req = SearchRequest::new(pred.clone()).sorted_by(sort.clone());
            // The cursor resumes after a random hit of the full result.
            if let Some(at) = cursor_at {
                let (full, _) = execute_request_reference(&whole, &req);
                if !full.is_empty() {
                    req = req.after(Cursor::after(&full[at % full.len()]));
                }
            }
            if let Some(k) = limit {
                req = req.with_limit(k);
            }

            let (reference, _) = execute_request_reference(&whole, &req);
            let (streamed, _) = execute_request(&whole, &req);
            prop_assert_eq!(&streamed, &reference, "execute_request {:?} {:?}", pred, sort);
            let (node, _) = execute_node_request_sequential(&[&whole], &req);
            prop_assert_eq!(&node, &reference, "execute_node_request {:?} {:?}", pred, sort);

            let per_acg = part_refs.iter().map(|g| execute_request_reference(g, &req).0).collect();
            let merged = merge_sorted_hits(per_acg, &req.sort, req.limit);
            let (node, _) = execute_node_request_sequential(&part_refs, &req);
            prop_assert_eq!(&node, &merged, "{} ACGs {:?} {:?}", acg_count, pred, sort);
        }
    }
}
