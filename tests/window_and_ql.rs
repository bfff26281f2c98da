//! End-to-end: the SQL-ish query dialect driving a real engine.

use std::sync::Arc;

use cots::{CotsEngine, RuntimeOptions};
use cots_core::ql;
use cots_core::query::{QueryKind, QueryPeriod};
use cots_core::{CotsConfig, QueryableSummary};
use cots_datagen::StreamSpec;

#[test]
fn parsed_statements_run_against_a_live_engine() {
    let stream = StreamSpec {
        scramble_ids: false,
        ..StreamSpec::zipf(60_000, 2_000, 2.0, 5)
    }
    .generate();
    let engine = Arc::new(CotsEngine::<u64>::new(CotsConfig::for_capacity(256).unwrap()).unwrap());
    cots::run(
        &engine,
        &stream,
        RuntimeOptions {
            threads: 4,
            batch: 512,
            adaptive: false,
        },
    )
    .unwrap();

    // Set query through the dialect matches the direct API.
    let stmt = ql::parse("Select S.element From Stream S Where IsElementFrequent(S.element, 0.01)")
        .unwrap();
    let QueryKind::Set(set) = stmt.query else {
        panic!("expected a set query")
    };
    let via_ql = engine.set_query(set);
    let direct = engine.set_query(cots_core::SetQuery::Frequent {
        threshold: cots_core::Threshold::Fraction(0.01),
    });
    assert_eq!(via_ql.entries(), direct.entries());
    assert!(!via_ql.is_empty(), "1% of a zipf(2.0) stream is non-empty");

    // Point query: rank 1 must be in the top 5 (unscrambled ids = ranks).
    let stmt = ql::parse("Select S.element From Stream S Where IsElementInTopk(1, 5)").unwrap();
    let QueryKind::Point(p) = stmt.query else {
        panic!("expected a point query")
    };
    assert!(engine.point_query(p));

    // Interval scheduling drives periodic evaluation.
    let stmt =
        ql::parse("Select S.element From Stream S Where IsElementInTopk(S.element, 3) Every 20000")
            .unwrap();
    let iq = stmt.to_interval(0.0);
    let QueryPeriod::Updates(period) = iq.period;
    assert_eq!(period, 20_000);
    let mut evaluations = 0;
    for (i, _) in stream.iter().enumerate() {
        if ((i + 1) as u64).is_multiple_of(period) {
            let ans = engine.query(iq.query);
            assert_eq!(ans.as_set().unwrap().len(), 3);
            evaluations += 1;
        }
    }
    assert_eq!(evaluations, 3);
}
