//! Golden bytes for every JSON record the wire, the checkpoint files and
//! the bench artifacts carry. The literals were captured from the
//! hand-written `ToJson` impls at commit c416aa4, before `json_record!`
//! replaced them: a field renamed, reordered, dropped or re-typed by a
//! declaration edit changes bytes that peers and files on disk already
//! hold, and fails here.
//!
//! The BIN1 frames are pinned the same way, as hex with one group per
//! field: a round trip cannot see a layout change made to the encoder
//! and the decoder at once, a literal can.

use std::fmt::Debug;
use std::time::Duration;

use cots_core::json::{from_str, to_string, FromJson, ToJson};
use cots_core::query::{IntervalQuery, QueryKind, QueryPeriod};
use cots_core::{
    ClusterReport, CotsConfig, CounterEntry, MemberReport, PersistReport, PointQuery, QueryAnswer,
    RecoveryReport, ReplReport, RunStats, ServiceReport, SetQuery, ShardReport, Snapshot,
    Threshold, WorkCounters,
};
use cots_persist::Checkpoint;
use cots_profiling::{Breakdown, Phase, PhaseTimes, ThroughputSummary};
use cots_serve::{bin1, QueryStamp, ReplFrame, Request, Response};

/// `value` encodes to exactly `golden`, and `golden` decodes back to it.
fn check<T: ToJson + FromJson + PartialEq + Debug>(value: &T, golden: &str) {
    assert_eq!(to_string(value), golden, "{}", std::any::type_name::<T>());
    assert_eq!(&from_str::<T>(golden).unwrap(), value);
}

/// [`check`] for types without `PartialEq`: the decoded value re-encodes
/// to the same bytes.
fn check_reencoded<T: ToJson + FromJson>(value: &T, golden: &str) {
    assert_eq!(to_string(value), golden, "{}", std::any::type_name::<T>());
    assert_eq!(to_string(&from_str::<T>(golden).unwrap()), golden);
}

/// Hex digits to bytes; whitespace separates fields and is ignored.
fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// `request` encodes to exactly the BIN1 bytes `golden`, and they decode
/// back to it.
fn check_bin1_request(request: &Request, golden: &str) {
    let bytes = unhex(golden);
    assert_eq!(bin1::encode_request(request).unwrap(), bytes, "{request:?}");
    assert_eq!(&bin1::decode_request(&bytes).unwrap(), request);
}

/// [`check_bin1_request`] for a response.
fn check_bin1_response(response: &Response, golden: &str) {
    let bytes = unhex(golden);
    assert_eq!(
        bin1::encode_response(response).unwrap(),
        bytes,
        "{response:?}"
    );
    assert_eq!(&bin1::decode_response(&bytes).unwrap(), response);
}

fn shard() -> ShardReport {
    ShardReport {
        shard: 1,
        batches: 4,
        keys: 400,
        max_queue_depth: 3,
        idle_parks: 2,
    }
}

fn recovery() -> RecoveryReport {
    RecoveryReport {
        checkpoint_watermark: Some(17),
        base_items: 800,
        replayed_batches: 3,
        replayed_items: 200,
        recovered_items: 1_000,
        segments_scanned: 2,
        bytes_scanned: 4_096,
        torn_frames: 1,
        dropped_bytes: 37,
        corrupt_checkpoints: 5,
        elapsed_secs: 0.25,
    }
}

fn persist() -> PersistReport {
    PersistReport {
        checkpoints: 4,
        last_watermark: 17,
        wal_records: 9,
        wal_keys: 1_000,
        wal_bytes: 8_200,
        wal_syncs: 6,
        io_errors: 1,
    }
}

fn repl() -> ReplReport {
    ReplReport {
        role: "primary".into(),
        peer: "127.0.0.1:6060".into(),
        connected: true,
        streamed_batches: 12,
        streamed_keys: 1_200,
        acked_seq: 11,
        next_seq: 13,
        unacked_batches: 2,
        unacked_keys: 150,
        snapshots: 1,
        duplicates: 3,
        promotions: 7,
        lineage: 2,
        resync_required: true,
    }
}

fn member() -> MemberReport {
    MemberReport {
        member: 1,
        addr: "127.0.0.1:5050".into(),
        healthy: true,
        epoch: 12,
        captured_total: 9_000,
        forwarded_keys: 9_500,
        spilled_keys: 20,
        pulls: 40,
        pull_failures: 3,
        staleness: 500,
        standby: Some("127.0.0.1:6050".into()),
        promotions: 1,
        repl_unacked_keys: 120,
    }
}

fn work() -> WorkCounters {
    WorkCounters {
        elements: 1,
        summary_ops: 2,
        boundary_crossings: 3,
        delegated_increments: 4,
        combined_increments: 5,
        combiner_flushes: 6,
        delegated_requests: 7,
        lock_acquisitions: 8,
        lock_contentions: 9,
        merges: 10,
        merged_counters: 11,
        read_restarts: 12,
        gc_buckets: 13,
        overwrites: 14,
        overwrite_deferrals: 15,
    }
}

#[test]
fn report_structs() {
    check(
        &shard(),
        r#"{"shard":1,"batches":4,"keys":400,"max_queue_depth":3,"idle_parks":2}"#,
    );
    check(
        &recovery(),
        r#"{"checkpoint_watermark":17,"base_items":800,"replayed_batches":3,"replayed_items":200,"recovered_items":1000,"segments_scanned":2,"bytes_scanned":4096,"torn_frames":1,"dropped_bytes":37,"corrupt_checkpoints":5,"elapsed_secs":0.25}"#,
    );
    check(
        &RecoveryReport {
            checkpoint_watermark: None,
            ..recovery()
        },
        r#"{"checkpoint_watermark":null,"base_items":800,"replayed_batches":3,"replayed_items":200,"recovered_items":1000,"segments_scanned":2,"bytes_scanned":4096,"torn_frames":1,"dropped_bytes":37,"corrupt_checkpoints":5,"elapsed_secs":0.25}"#,
    );
    check(
        &persist(),
        r#"{"checkpoints":4,"last_watermark":17,"wal_records":9,"wal_keys":1000,"wal_bytes":8200,"wal_syncs":6,"io_errors":1}"#,
    );
    check(
        &repl(),
        r#"{"role":"primary","peer":"127.0.0.1:6060","connected":true,"streamed_batches":12,"streamed_keys":1200,"acked_seq":11,"next_seq":13,"unacked_batches":2,"unacked_keys":150,"snapshots":1,"duplicates":3,"promotions":7,"lineage":2,"resync_required":true}"#,
    );
    check(
        &member(),
        r#"{"member":1,"addr":"127.0.0.1:5050","healthy":true,"epoch":12,"captured_total":9000,"forwarded_keys":9500,"spilled_keys":20,"pulls":40,"pull_failures":3,"staleness":500,"standby":"127.0.0.1:6050","promotions":1,"repl_unacked_keys":120}"#,
    );
    check(
        &MemberReport {
            standby: None,
            ..member()
        },
        r#"{"member":1,"addr":"127.0.0.1:5050","healthy":true,"epoch":12,"captured_total":9000,"forwarded_keys":9500,"spilled_keys":20,"pulls":40,"pull_failures":3,"staleness":500,"standby":null,"promotions":1,"repl_unacked_keys":120}"#,
    );
    check(
        &ClusterReport {
            members: vec![member()],
            epoch: 9,
            captured_total: 13_000,
            forwarded_keys: 13_800,
            staleness: 800,
            degraded_members: 1,
            degraded_staleness: 300,
            promotions: 2,
            repl_unacked_keys: 120,
            merges: 61,
            queries: 14,
        },
        r#"{"members":[{"member":1,"addr":"127.0.0.1:5050","healthy":true,"epoch":12,"captured_total":9000,"forwarded_keys":9500,"spilled_keys":20,"pulls":40,"pull_failures":3,"staleness":500,"standby":"127.0.0.1:6050","promotions":1,"repl_unacked_keys":120}],"epoch":9,"captured_total":13000,"forwarded_keys":13800,"staleness":800,"degraded_members":1,"degraded_staleness":300,"promotions":2,"repl_unacked_keys":120,"merges":61,"queries":14}"#,
    );
    let service = ServiceReport {
        ingested_keys: 1_000,
        ingest_frames: 10,
        rejected_frames: 2,
        queries: 7,
        snapshot_epoch: 5,
        staleness: 128,
        monitored: 100,
        shards: vec![shard()],
        recovery: Some(recovery()),
        persist: Some(persist()),
        repl: Some(repl()),
    };
    check(
        &service,
        r#"{"ingested_keys":1000,"ingest_frames":10,"rejected_frames":2,"queries":7,"snapshot_epoch":5,"staleness":128,"monitored":100,"shards":[{"shard":1,"batches":4,"keys":400,"max_queue_depth":3,"idle_parks":2}],"recovery":{"checkpoint_watermark":17,"base_items":800,"replayed_batches":3,"replayed_items":200,"recovered_items":1000,"segments_scanned":2,"bytes_scanned":4096,"torn_frames":1,"dropped_bytes":37,"corrupt_checkpoints":5,"elapsed_secs":0.25},"persist":{"checkpoints":4,"last_watermark":17,"wal_records":9,"wal_keys":1000,"wal_bytes":8200,"wal_syncs":6,"io_errors":1},"repl":{"role":"primary","peer":"127.0.0.1:6060","connected":true,"streamed_batches":12,"streamed_keys":1200,"acked_seq":11,"next_seq":13,"unacked_batches":2,"unacked_keys":150,"snapshots":1,"duplicates":3,"promotions":7,"lineage":2,"resync_required":true}}"#,
    );
    check(
        &ServiceReport {
            shards: vec![],
            recovery: None,
            persist: None,
            repl: None,
            ..service
        },
        r#"{"ingested_keys":1000,"ingest_frames":10,"rejected_frames":2,"queries":7,"snapshot_epoch":5,"staleness":128,"monitored":100,"shards":[],"recovery":null,"persist":null,"repl":null}"#,
    );
}

#[test]
fn wire_structs() {
    check(
        &QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 7,
            rotations: Some(2),
        },
        r#"{"epoch":3,"captured_total":100,"staleness":7,"rotations":2}"#,
    );
    check(
        &QueryStamp::default(),
        r#"{"epoch":0,"captured_total":0,"staleness":0,"rotations":null}"#,
    );
    check(
        &ReplFrame {
            seq: 17,
            keys: vec![1, 2, u64::MAX],
        },
        r#"{"seq":17,"keys":[1,2,18446744073709551615]}"#,
    );
}

#[test]
fn checkpoint_payload_and_summaries() {
    let entries = vec![CounterEntry::new(7u64, 9, 2), CounterEntry::new(1, 4, 0)];
    check(
        &Checkpoint {
            watermark: 42,
            epoch: 3,
            capacity: 8,
            total: 13,
            entries: entries.clone(),
        },
        r#"{"watermark":42,"epoch":3,"capacity":8,"total":13,"entries":[{"item":7,"count":9,"error":2},{"item":1,"count":4,"error":0}]}"#,
    );
    check(&entries[0], r#"{"item":7,"count":9,"error":2}"#);
    check(
        &Snapshot::new(entries, 13),
        r#"{"entries":[{"item":7,"count":9,"error":2},{"item":1,"count":4,"error":0}],"total":13}"#,
    );
}

#[test]
fn config_and_counters() {
    check(
        &CotsConfig::for_capacity(1000).unwrap(),
        r#"{"summary":{"capacity":1000},"hash_bits":11,"block_entries":4,"adaptive":null,"combiner_slots":128}"#,
    );
    check(
        &CotsConfig::for_capacity(10)
            .unwrap()
            .with_adaptive(64, 8)
            .without_combiner(),
        r#"{"summary":{"capacity":10},"hash_bits":5,"block_entries":4,"adaptive":{"sigma":64,"rho":8},"combiner_slots":0}"#,
    );
    check(
        &work(),
        r#"{"elements":1,"summary_ops":2,"boundary_crossings":3,"delegated_increments":4,"combined_increments":5,"combiner_flushes":6,"delegated_requests":7,"lock_acquisitions":8,"lock_contentions":9,"merges":10,"merged_counters":11,"read_restarts":12,"gc_buckets":13,"overwrites":14,"overwrite_deferrals":15}"#,
    );
    check_reencoded(
        &RunStats {
            engine: "cots".into(),
            threads: 4,
            elements: 42,
            elapsed: Duration::from_millis(1500),
            work: work(),
        },
        r#"{"engine":"cots","threads":4,"elements":42,"elapsed":1.5,"work":{"elements":1,"summary_ops":2,"boundary_crossings":3,"delegated_increments":4,"combined_increments":5,"combiner_flushes":6,"delegated_requests":7,"lock_acquisitions":8,"lock_contentions":9,"merges":10,"merged_counters":11,"read_restarts":12,"gc_buckets":13,"overwrites":14,"overwrite_deferrals":15}}"#,
    );
    check(&cots::Policy::SpaceSaving, r#""SpaceSaving""#);
    check(
        &cots::Policy::LossyRounds { width: 7 },
        r#"{"LossyRounds":{"width":7}}"#,
    );
}

#[test]
fn queries_and_profiles() {
    check(
        &IntervalQuery::<u64> {
            query: QueryKind::Set(SetQuery::TopK { k: 25 }),
            period: QueryPeriod::Updates(50_000),
        },
        r#"{"query":{"Set":{"TopK":{"k":25}}},"period":{"Updates":50000}}"#,
    );
    check(
        &QueryKind::<u64>::Point(PointQuery::IsFrequent {
            item: 9,
            threshold: Threshold::Fraction(0.25),
        }),
        r#"{"Point":{"IsFrequent":{"item":9,"threshold":{"Fraction":0.25}}}}"#,
    );
    check(
        &QueryKind::<u64>::Point(PointQuery::IsInTopK { item: 9, k: 3 }),
        r#"{"Point":{"IsInTopK":{"item":9,"k":3}}}"#,
    );
    check(
        &SetQuery::Frequent {
            threshold: Threshold::Count(12),
        },
        r#"{"Frequent":{"threshold":{"Count":12}}}"#,
    );
    check(&QueryAnswer::<u64>::Bool(true), r#"{"Bool":true}"#);
    check(
        &QueryAnswer::<u64>::Set(vec![CounterEntry::new(1, 2, 0)]),
        r#"{"Set":[{"item":1,"count":2,"error":0}]}"#,
    );
    check(&Phase::StructureOps, r#""StructureOps""#);
    let mut times = PhaseTimes::default();
    times.add(Phase::Merge, Duration::from_nanos(250));
    times.add(Phase::Rest, Duration::from_nanos(750));
    check_reencoded(&times, r#"{"nanos":[0,250,0,0,0,0,750]}"#);
    check_reencoded(
        &Breakdown::aggregate(2, &[times]),
        r#"{"threads":2,"percent":[0,25,0,0,0,0,75],"total_nanos":1000}"#,
    );
    check(
        &ThroughputSummary {
            median_secs: 1.5,
            min_secs: 1.25,
            max_secs: 2.0,
        },
        r#"{"median_secs":1.5,"min_secs":1.25,"max_secs":2}"#,
    );
}

#[test]
fn bin1_frames() {
    check_bin1_request(
        &Request::Ingest {
            keys: vec![1, 2, u64::MAX],
        },
        "b1 01 03000000 0100000000000000 0200000000000000 ffffffffffffffff",
    );
    check_bin1_response(
        &Response::IngestAck { enqueued: 4096 },
        "b1 02 0010000000000000",
    );
    check_bin1_response(&Response::Overloaded, "b1 03");
    check_bin1_request(
        &Request::ReplBatch {
            lineage: 2,
            batches: vec![
                ReplFrame {
                    seq: 17,
                    keys: vec![1, u64::MAX],
                },
                ReplFrame {
                    seq: 18,
                    keys: vec![],
                },
            ],
        },
        "b1 04 0200000000000000 02000000 \
         1100000000000000 02000000 0100000000000000 ffffffffffffffff \
         1200000000000000 00000000",
    );
    check_bin1_response(&Response::ReplAck { ack_seq: 99 }, "b1 05 6300000000000000");
    check_bin1_request(
        &Request::SnapshotPage {
            since_epoch: 41,
            offset: 128,
            limit: 4096,
        },
        "b1 06 2900000000000000 8000000000000000 0010000000000000",
    );
    let page = |rotations| Response::SnapshotPage {
        entries: vec![CounterEntry::new(7u64, 9, 2), CounterEntry::new(1, 4, 0)],
        offset: 128,
        total_entries: 130,
        total: 13,
        done: true,
        unchanged: false,
        stamp: QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 7,
            rotations,
        },
    };
    check_bin1_response(
        &page(Some(2)),
        "b1 07 05 8000000000000000 8200000000000000 0d00000000000000 \
         0300000000000000 6400000000000000 0700000000000000 0200000000000000 \
         02000000 \
         0700000000000000 0900000000000000 0200000000000000 \
         0100000000000000 0400000000000000 0000000000000000",
    );
    check_bin1_response(
        &page(None),
        "b1 07 01 8000000000000000 8200000000000000 0d00000000000000 \
         0300000000000000 6400000000000000 0700000000000000 \
         02000000 \
         0700000000000000 0900000000000000 0200000000000000 \
         0100000000000000 0400000000000000 0000000000000000",
    );
}
