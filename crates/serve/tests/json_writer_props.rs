//! The streaming JSON writer prints what the tree printer prints: for
//! random values of every wire and report type, `json::to_string` (the
//! writer) equals `to_json().dump()` (the tree), byte for byte, and the
//! capped answer writer equals both. Values lean on the edges: `0`,
//! `u64::MAX`, `None`, empty vectors and strings that need escaping.

use proptest::prelude::*;

use cots_core::json::{self, ToJson};
use cots_core::{
    ClusterReport, CounterEntry, MemberReport, PersistReport, RecoveryReport, ReplReport,
    ServiceReport, ShardReport, Snapshot, WorkCounters,
};
use cots_persist::Checkpoint;
use cots_serve::protocol::{encode_within, QueryReq, QueryStamp, ReplFrame, Request, Response};

/// Values drawn from one seed (xorshift), biased toward the edges.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn u64(&mut self) -> u64 {
        match self.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(10),
            3 => 10u64.pow(self.below(20) as u32),
            _ => self.next() >> self.below(64),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    fn f64(&mut self) -> f64 {
        match self.below(4) {
            0 => 0.0,
            1 => self.below(1_000) as f64,
            2 => 1.0 / (1 + self.below(1_000_000)) as f64,
            _ => (self.next() >> 11) as f64 * 1e-3,
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 12] = [
            "", "a", "member-7", "\"", "\\", "\n", "\r\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "😀",
        ];
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }

    fn keys(&mut self) -> Vec<u64> {
        self.vec(8, Self::u64)
    }

    fn entry(&mut self) -> CounterEntry<u64> {
        CounterEntry {
            item: self.u64(),
            count: self.u64(),
            error: self.u64(),
        }
    }

    fn entries(&mut self) -> Vec<CounterEntry<u64>> {
        self.vec(6, Self::entry)
    }

    fn stamp(&mut self) -> QueryStamp {
        QueryStamp {
            epoch: self.u64(),
            captured_total: self.u64(),
            staleness: self.u64(),
            rotations: self.opt(Self::u64),
        }
    }

    fn query(&mut self) -> QueryReq {
        match self.below(3) {
            0 => QueryReq::Point { key: self.u64() },
            1 => QueryReq::Frequent { phi: self.f64() },
            _ => QueryReq::TopK { k: self.usize() },
        }
    }

    fn request(&mut self) -> Request {
        match self.below(11) {
            0 => Request::Hello {
                proto_version: self.u32(),
                features: self.vec(3, Self::string),
            },
            1 => Request::Ingest { keys: self.keys() },
            2 => Request::Query(self.query()),
            3 => Request::Stats,
            4 => Request::SnapshotPage {
                since_epoch: self.u64(),
                offset: self.usize(),
                limit: self.usize(),
            },
            5 => Request::ClusterStats,
            6 => Request::Checkpoint,
            7 => Request::Shutdown,
            8 => Request::ReplSubscribe {
                start_seq: self.u64(),
                lineage: self.u64(),
                next_seq: self.u64(),
            },
            9 => Request::ReplBatch {
                lineage: self.u64(),
                batches: self.vec(3, |g| ReplFrame {
                    seq: g.u64(),
                    keys: g.keys(),
                }),
            },
            _ => match self.bool() {
                true => Request::ReplPromote,
                false => Request::ReplSnapshot {
                    lineage: self.u64(),
                    watermark: self.u64(),
                    snapshot: Snapshot::new(self.entries(), self.u64()),
                },
            },
        }
    }

    fn work(&mut self) -> WorkCounters {
        WorkCounters {
            elements: self.u64(),
            summary_ops: self.u64(),
            boundary_crossings: self.u64(),
            delegated_increments: self.u64(),
            combined_increments: self.u64(),
            combiner_flushes: self.u64(),
            delegated_requests: self.u64(),
            lock_acquisitions: self.u64(),
            lock_contentions: self.u64(),
            merges: self.u64(),
            merged_counters: self.u64(),
            read_restarts: self.u64(),
            gc_buckets: self.u64(),
            overwrites: self.u64(),
            overwrite_deferrals: self.u64(),
        }
    }

    fn service_report(&mut self) -> ServiceReport {
        ServiceReport {
            ingested_keys: self.u64(),
            ingest_frames: self.u64(),
            rejected_frames: self.u64(),
            queries: self.u64(),
            snapshot_epoch: self.u64(),
            staleness: self.u64(),
            monitored: self.usize(),
            shards: self.vec(4, |g| ShardReport {
                shard: g.usize(),
                batches: g.u64(),
                keys: g.u64(),
                max_queue_depth: g.u64(),
                idle_parks: g.u64(),
            }),
            recovery: self.opt(|g| RecoveryReport {
                checkpoint_watermark: g.opt(Self::u64),
                base_items: g.u64(),
                replayed_batches: g.u64(),
                replayed_items: g.u64(),
                recovered_items: g.u64(),
                segments_scanned: g.u64(),
                bytes_scanned: g.u64(),
                torn_frames: g.u64(),
                dropped_bytes: g.u64(),
                corrupt_checkpoints: g.u64(),
                elapsed_secs: g.f64(),
            }),
            persist: self.opt(|g| PersistReport {
                checkpoints: g.u64(),
                last_watermark: g.u64(),
                wal_records: g.u64(),
                wal_keys: g.u64(),
                wal_bytes: g.u64(),
                wal_syncs: g.u64(),
                io_errors: g.u64(),
            }),
            repl: self.opt(|g| ReplReport {
                role: g.string(),
                peer: g.string(),
                connected: g.bool(),
                streamed_batches: g.u64(),
                streamed_keys: g.u64(),
                acked_seq: g.u64(),
                next_seq: g.u64(),
                unacked_batches: g.u64(),
                unacked_keys: g.u64(),
                snapshots: g.u64(),
                duplicates: g.u64(),
                promotions: g.u64(),
                lineage: g.u64(),
                resync_required: g.bool(),
            }),
        }
    }

    fn cluster_report(&mut self) -> ClusterReport {
        ClusterReport {
            members: self.vec(3, |g| MemberReport {
                member: g.usize(),
                addr: g.string(),
                healthy: g.bool(),
                epoch: g.u64(),
                captured_total: g.u64(),
                forwarded_keys: g.u64(),
                spilled_keys: g.u64(),
                pulls: g.u64(),
                pull_failures: g.u64(),
                staleness: g.u64(),
                standby: g.opt(Self::string),
                promotions: g.u64(),
                repl_unacked_keys: g.u64(),
            }),
            epoch: self.u64(),
            captured_total: self.u64(),
            forwarded_keys: self.u64(),
            staleness: self.u64(),
            degraded_members: self.usize(),
            degraded_staleness: self.u64(),
            promotions: self.u64(),
            repl_unacked_keys: self.u64(),
            merges: self.u64(),
            queries: self.u64(),
        }
    }

    fn response(&mut self) -> Response {
        match self.below(12) {
            0 => Response::HelloAck {
                proto_version: self.u32(),
                features: self.vec(3, Self::string),
            },
            1 => Response::UnsupportedVersion {
                supported: self.u32(),
                requested: self.u32(),
            },
            2 => Response::IngestAck {
                enqueued: self.u64(),
            },
            3 => Response::Overloaded,
            4 | 5 => Response::Answer {
                entries: self.entries(),
                total: self.u64(),
                stamp: self.stamp(),
            },
            6 => Response::Stats(self.service_report()),
            7 => Response::SnapshotPage {
                entries: self.entries(),
                offset: self.usize(),
                total_entries: self.usize(),
                total: self.u64(),
                done: self.bool(),
                unchanged: self.bool(),
                stamp: self.stamp(),
            },
            8 => Response::ClusterStats(self.cluster_report()),
            9 => Response::Checkpointed {
                watermark: self.u64(),
                total: self.u64(),
                bytes: self.u64(),
            },
            10 => match self.bool() {
                true => Response::ShuttingDown,
                false => Response::ReplAck {
                    ack_seq: self.u64(),
                },
            },
            _ => Response::Error {
                message: self.string(),
            },
        }
    }
}

/// The writer's bytes against the tree's.
fn same_bytes<T: ToJson>(v: &T) {
    assert_eq!(json::to_string(v), v.to_json().dump());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn wire_messages_write_as_their_trees(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        let request = g.request();
        same_bytes(&request);
        let response = g.response();
        same_bytes(&response);
        let text = json::to_string(&response);
        prop_assert_eq!(encode_within(&response, usize::MAX), Ok(text.clone()));
        prop_assert_eq!(encode_within(&response, text.len()), Ok(text.clone()));
        if !text.is_empty() {
            prop_assert!(encode_within(&response, text.len() - 1).is_err());
        }
    }

    #[test]
    fn reports_and_checkpoints_write_as_their_trees(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        same_bytes(&g.service_report());
        same_bytes(&g.cluster_report());
        same_bytes(&g.work());
        let checkpoint = Checkpoint {
            watermark: g.u64(),
            epoch: g.u64(),
            capacity: g.usize(),
            total: g.u64(),
            entries: g.entries(),
        };
        same_bytes(&checkpoint);
        same_bytes(&Snapshot::new(g.entries(), g.u64()));
        same_bytes(&g.vec(4, Gen::string));
        same_bytes(&g.opt(Gen::f64));
    }
}

#[test]
fn edge_values_write_as_their_trees() {
    let edges = Response::Answer {
        entries: vec![CounterEntry {
            item: u64::MAX,
            count: u64::MAX,
            error: 0,
        }],
        total: u64::MAX,
        stamp: QueryStamp {
            rotations: None,
            ..QueryStamp::default()
        },
    };
    same_bytes(&edges);
    same_bytes(&Response::Error {
        message: "\"\\\n\u{0}\u{1f}é😀".into(),
    });
    same_bytes(&Request::Ingest { keys: vec![] });
    same_bytes(&(i64::MIN, -1i32, 0u8));
    assert_eq!(json::to_string(&u64::MAX), "18446744073709551615");
    assert_eq!(json::to_string(&i64::MIN), "-9223372036854775808");
}
