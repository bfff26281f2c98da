//! The per-connection protocol layer, shared by every front-end.
//!
//! A connection speaks the same rules whether it lands on a member's
//! reactor or on the coordinator's blocking loop, so the rules live here
//! once and the front-ends only move bytes:
//!
//! * **Handshake** — the first frame must be `HELLO` with a version in
//!   `MIN_PROTO_VERSION..=PROTO_VERSION` (both 5); anything else is
//!   answered with `UNSUPPORTED_VERSION` (`requested = 0` when no `HELLO`
//!   was sent at all) and the connection closes.
//! * **One encoding per op** — each op travels in the one encoding
//!   [`crate::bin1`] assigns it: BIN1 for the bulk ops and their answers,
//!   JSON for everything else. A JSON frame naming a bulk op is answered
//!   with an error naming its BIN1 form and is never dispatched; a
//!   malformed frame of either encoding is an ordinary error. Neither
//!   closes the connection.
//! * **Snapshot serving** — `SNAPSHOT_PAGE` pins the endpoint's freshest
//!   published snapshot at `offset == 0` and keeps reading the pinned
//!   one on later pages, so a multi-frame transfer never sees a torn
//!   summary.
//! * **Frame cap** — a response that encodes past [`MAX_FRAME`] (a `TopK`
//!   or `Frequent` answer over a very large `--capacity` can) is replaced
//!   by a JSON error saying so; the connection stays open.
//! * **Shutdown** — the connection closes after `SHUTTING_DOWN`.
//!
//! What differs between front-ends is behind [`Endpoint`]: which features
//! they advertise, where the published snapshot comes from, and how every
//! other request is answered. [`crate::Service`] implements it over a
//! [`crate::ShardSender`]; the [`crate::cluster`] coordinator over its router.
//!
//! AUDIT: total — every frame here is attacker-controlled; enforced by
//! `cargo xtask audit` (lint-totality).

use std::sync::Arc;

use cots::StampedSnapshot;

use crate::bin1;
use crate::frame::{Payload, MAX_FRAME};
use crate::protocol::{
    decode, encode, snapshot_page_response, QueryStamp, Request, Response, MIN_PROTO_VERSION,
    PROTO_VERSION,
};

/// What a front-end plugs into the shared protocol layer.
pub trait Endpoint {
    /// Per-connection ingest handle (a member's shard rings, the
    /// coordinator's member router).
    type Link;

    /// Feature flags advertised in `HELLO_ACK`.
    fn features(&self) -> &'static [&'static str];

    /// The freshest published snapshot: what a `SNAPSHOT_PAGE` transfer
    /// starting now pins.
    fn current(&self, link: &mut Self::Link) -> Arc<StampedSnapshot<u64>>;

    /// Provenance stamp for a (possibly pinned) snapshot, with staleness
    /// measured against everything acknowledged so far.
    fn stamp(&self, snapshot: &StampedSnapshot<u64>) -> QueryStamp;

    /// Answer any request other than `HELLO` and `SNAPSHOT_PAGE`, which
    /// [`serve_request`] answers itself and never passes on.
    fn dispatch(&self, request: Request, link: &mut Self::Link) -> Response;
}

/// The answer an [`Endpoint::dispatch`] gives for an op it has no arm
/// of its own for — by contract only the two it is never handed.
pub fn not_dispatched() -> Response {
    Response::Error {
        message: "op not served by this endpoint (HELLO and SNAPSHOT_PAGE are answered by \
                  the connection layer before dispatch)"
            .into(),
    }
}

/// Per-connection protocol state: handshake progress plus the snapshot
/// pinned by an in-progress paged transfer. Owned by the connection,
/// never shared.
#[derive(Default)]
pub struct ConnState {
    greeted: bool,
    pinned: Option<Arc<StampedSnapshot<u64>>>,
}

impl ConnState {
    /// Fresh state for a newly accepted connection: the first frame must
    /// be `HELLO`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A state that skips the handshake — for in-process callers that
    /// drive [`serve_request`] without a socket.
    pub fn pre_greeted() -> Self {
        Self {
            greeted: true,
            ..Self::default()
        }
    }
}

/// What a connection should do with one request's outcome.
pub struct Reply {
    /// The response to write.
    pub response: Response,
    /// Close the connection after flushing the response (handshake
    /// rejection, protocol violation, graceful shutdown).
    pub close: bool,
}

impl Reply {
    fn open(response: Response) -> Self {
        Self {
            response,
            close: false,
        }
    }

    fn closing(response: Response) -> Self {
        Self {
            response,
            close: true,
        }
    }

    fn error(message: String) -> Self {
        Self::open(Response::Error { message })
    }
}

/// Serve one decoded request: enforce the handshake, answer the snapshot
/// ops from the endpoint's published snapshot, hand everything else to
/// [`Endpoint::dispatch`], and say whether the connection closes.
pub fn serve_request<E: Endpoint>(
    endpoint: &E,
    conn: &mut ConnState,
    request: Request,
    link: &mut E::Link,
) -> Reply {
    if let Request::Hello { proto_version, .. } = request {
        if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&proto_version) {
            return Reply::closing(Response::UnsupportedVersion {
                supported: PROTO_VERSION,
                requested: proto_version,
            });
        }
        conn.greeted = true;
        return Reply::open(Response::HelloAck {
            proto_version: PROTO_VERSION,
            features: endpoint.features().iter().map(|f| f.to_string()).collect(),
        });
    }
    if !conn.greeted {
        return Reply::closing(Response::UnsupportedVersion {
            supported: PROTO_VERSION,
            requested: 0,
        });
    }
    match request {
        Request::SnapshotPage {
            since_epoch,
            offset,
            limit,
        } => {
            let pinned = match conn.pinned.take() {
                Some(pinned) if offset != 0 => pinned,
                _ => endpoint.current(link),
            };
            let stamp = endpoint.stamp(&pinned);
            let page = snapshot_page_response(&pinned.snapshot, stamp, since_epoch, offset, limit);
            conn.pinned = Some(pinned);
            Reply::open(page)
        }
        other => {
            let response = endpoint.dispatch(other, link);
            let close = matches!(response, Response::ShuttingDown);
            Reply { response, close }
        }
    }
}

/// Serve one raw frame payload: decode it, refuse a bulk op sent as JSON,
/// run [`serve_request`], and encode the response in its one form (see
/// [`encode_reply`]). Returns the payload to write and whether the
/// connection must close after it.
pub fn serve_frame<E: Endpoint>(
    endpoint: &E,
    conn: &mut ConnState,
    payload: &Payload,
    link: &mut E::Link,
) -> (Payload, bool) {
    encode_reply(serve_payload(endpoint, conn, payload, link))
}

/// [`serve_frame`] before the encode. A front-end that may hold a frame
/// instead of answering it looks at the reply here.
pub fn serve_payload<E: Endpoint>(
    endpoint: &E,
    conn: &mut ConnState,
    payload: &Payload,
    link: &mut E::Link,
) -> Reply {
    match payload {
        Payload::Json(text) => match decode::<Request>(text) {
            Ok(request) => match bin1::binary_only(&request) {
                // Before `HELLO` the handshake rule answers, whatever the op.
                Some(op) if conn.greeted => Reply::error(format!(
                    "{op} travels only as a BIN1 frame in protocol v{PROTO_VERSION}, not as JSON"
                )),
                _ => serve_request(endpoint, conn, request, link),
            },
            Err(e) => Reply::error(e.to_string()),
        },
        Payload::Bin(bytes) => match bin1::decode_request(bytes) {
            Ok(request) => serve_request(endpoint, conn, request, link),
            Err(e) => Reply::error(e.to_string()),
        },
    }
}

/// Encode `reply` in its op's one form (see [`bin1::response_payload`]),
/// falling back to a JSON error when it would not fit one frame. Returns
/// the payload to write and whether the connection must close after it.
pub fn encode_reply(reply: Reply) -> (Payload, bool) {
    let encoded = bin1::response_payload(&reply.response);
    if encoded.len() > MAX_FRAME {
        let fallback = Response::Error {
            message: format!(
                "response would be {} bytes, over the {MAX_FRAME}-byte frame cap; ask for \
                 fewer entries or page the summary with SNAPSHOT_PAGE",
                encoded.len()
            ),
        };
        return (Payload::Json(encode(&fallback)), reply.close);
    }
    (encoded, reply.close)
}

/// The frame a front-end writes before dropping a connection whose byte
/// stream stopped being frames (resync is impossible).
pub fn malformed_frame() -> Payload {
    Payload::Json(encode(&Response::Error {
        message: "malformed frame".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin1;
    use crate::frame::BIN1_MAGIC;
    use cots::SnapshotPublisher;
    use cots_core::{CounterEntry, Snapshot};

    /// An endpoint with no sockets and no engine: a publisher the test
    /// republishes by hand, and canned dispatch answers.
    struct Fake {
        publisher: SnapshotPublisher<u64>,
    }

    impl Fake {
        fn publish(&self, keys: std::ops::Range<u64>) -> u64 {
            let entries: Vec<_> = keys.map(|k| CounterEntry::new(k, 1, 0)).collect();
            let total = entries.len() as u64;
            self.publisher
                .publish(Snapshot::new(entries, total), total, None)
        }
    }

    impl Endpoint for Fake {
        /// Every request that reached dispatch, in order.
        type Link = Vec<Request>;

        fn features(&self) -> &'static [&'static str] {
            &["fake"]
        }

        fn current(&self, _seen: &mut Vec<Request>) -> Arc<StampedSnapshot<u64>> {
            self.publisher.current()
        }

        fn stamp(&self, snapshot: &StampedSnapshot<u64>) -> QueryStamp {
            QueryStamp {
                epoch: snapshot.epoch,
                captured_total: snapshot.captured_total,
                staleness: 0,
                rotations: None,
            }
        }

        fn dispatch(&self, request: Request, seen: &mut Vec<Request>) -> Response {
            seen.push(request.clone());
            match request {
                Request::Ingest { keys } => Response::IngestAck {
                    enqueued: keys.len() as u64,
                },
                Request::Shutdown => Response::ShuttingDown,
                // A response no frame can carry.
                Request::Stats => Response::Error {
                    message: "x".repeat(MAX_FRAME + 1),
                },
                _ => Response::Error {
                    message: "fake".into(),
                },
            }
        }
    }

    fn json(request: &Request) -> Payload {
        Payload::Json(encode(request))
    }

    fn hello(proto_version: u32, features: &[&str]) -> Payload {
        json(&Request::Hello {
            proto_version,
            features: features.iter().map(|f| f.to_string()).collect(),
        })
    }

    fn response(payload: &Payload) -> Response {
        crate::Client::decode_response(payload).expect("session emits decodable frames")
    }

    /// What one frame must be answered with.
    struct Expect {
        /// A predicate over the decoded response.
        response: fn(&Response) -> bool,
        bin: bool,
        close: bool,
        /// Whether the request reached [`Endpoint::dispatch`].
        dispatched: bool,
    }

    #[test]
    fn connection_rules_hold_for_any_endpoint() {
        let ingest_bin = Payload::Bin(bin1::encode_ingest(&[1, 2, 3]));
        let is_error = |r: &Response| matches!(r, Response::Error { .. });
        // (case, frames that set the connection up, the frame under test, expectation)
        let table: Vec<(&str, Vec<Payload>, Payload, Expect)> = vec![
            (
                "first frame not HELLO",
                vec![],
                json(&Request::Stats),
                Expect {
                    response: |r| {
                        matches!(
                            r,
                            Response::UnsupportedVersion {
                                supported: PROTO_VERSION,
                                requested: 0
                            }
                        )
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "protocol v2 is no longer negotiated",
                vec![],
                hello(2, &[]),
                Expect {
                    response: |r| {
                        matches!(
                            r,
                            Response::UnsupportedVersion {
                                supported: 5,
                                requested: 2
                            }
                        )
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "protocol v3 is no longer negotiated",
                vec![],
                hello(3, &[]),
                Expect {
                    response: |r| {
                        matches!(
                            r,
                            Response::UnsupportedVersion {
                                supported: 5,
                                requested: 3
                            }
                        )
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "protocol v4 is no longer negotiated",
                vec![],
                hello(4, &[]),
                Expect {
                    response: |r| {
                        matches!(
                            r,
                            Response::UnsupportedVersion {
                                supported: 5,
                                requested: 4
                            }
                        )
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "version above the supported range",
                vec![],
                hello(PROTO_VERSION + 1, &[]),
                Expect {
                    response: |r| {
                        matches!(r, Response::UnsupportedVersion { requested, .. }
                            if *requested == PROTO_VERSION + 1)
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "the supported version is greeted with the endpoint's features",
                vec![],
                hello(PROTO_VERSION, &[]),
                Expect {
                    response: |r| {
                        matches!(r, Response::HelloAck { proto_version: PROTO_VERSION, features }
                            if features == &["fake"])
                    },
                    bin: false,
                    close: false,
                    dispatched: false,
                },
            ),
            (
                "BIN1 INGEST after a featureless HELLO is served in BIN1",
                vec![hello(PROTO_VERSION, &[])],
                ingest_bin.clone(),
                Expect {
                    response: |r| matches!(r, Response::IngestAck { enqueued: 3 }),
                    bin: true,
                    close: false,
                    dispatched: true,
                },
            ),
            (
                "JSON INGEST is refused, naming its BIN1 form, and not dispatched",
                vec![hello(PROTO_VERSION, &[])],
                json(&Request::Ingest {
                    keys: vec![1, 2, 3],
                }),
                Expect {
                    response: |r| {
                        matches!(r, Response::Error { message }
                            if message.contains("INGEST") && message.contains("BIN1"))
                    },
                    bin: false,
                    close: false,
                    dispatched: false,
                },
            ),
            (
                "JSON INGEST before HELLO gets the handshake answer",
                vec![],
                json(&Request::Ingest {
                    keys: vec![1, 2, 3],
                }),
                Expect {
                    response: |r| {
                        matches!(r, Response::UnsupportedVersion { requested: 0, .. })
                    },
                    bin: false,
                    close: true,
                    dispatched: false,
                },
            ),
            (
                "malformed BIN1",
                vec![hello(PROTO_VERSION, &[])],
                Payload::Bin(vec![BIN1_MAGIC, 0x7F]),
                Expect {
                    response: is_error,
                    bin: false,
                    close: false,
                    dispatched: false,
                },
            ),
            (
                "malformed JSON",
                vec![hello(PROTO_VERSION, &[])],
                Payload::Json("{not json".into()),
                Expect {
                    response: is_error,
                    bin: false,
                    close: false,
                    dispatched: false,
                },
            ),
            (
                "BIN1 request answered with an error gets JSON",
                vec![hello(PROTO_VERSION, &[])],
                Payload::Bin(bin1::encode_repl_batch(0, &[])),
                Expect {
                    response: is_error,
                    bin: false,
                    close: false,
                    dispatched: true,
                },
            ),
            (
                "response over the frame cap",
                vec![hello(PROTO_VERSION, &[])],
                json(&Request::Stats),
                Expect {
                    response: |r| {
                        matches!(r, Response::Error { message }
                            if message.len() < 200 && message.contains("SNAPSHOT_PAGE"))
                    },
                    bin: false,
                    close: false,
                    dispatched: true,
                },
            ),
            (
                "SHUTDOWN closes after the answer",
                vec![hello(PROTO_VERSION, &[])],
                json(&Request::Shutdown),
                Expect {
                    response: |r| matches!(r, Response::ShuttingDown),
                    bin: false,
                    close: true,
                    dispatched: true,
                },
            ),
        ];
        for (case, setup, frame, expect) in table {
            let fake = Fake {
                publisher: SnapshotPublisher::new(),
            };
            fake.publish(0..10);
            let mut conn = ConnState::new();
            let mut seen = Vec::new();
            for frame in &setup {
                let (_, close) = serve_frame(&fake, &mut conn, frame, &mut seen);
                assert!(!close, "{case}: setup frame closed the connection");
            }
            let (answer, close) = serve_frame(&fake, &mut conn, &frame, &mut seen);
            assert!(
                (expect.response)(&response(&answer)),
                "{case}: got {:?}",
                response(&answer)
            );
            assert_eq!(answer.is_bin(), expect.bin, "{case}: response encoding");
            assert_eq!(close, expect.close, "{case}: close flag");
            assert_eq!(
                !seen.is_empty(),
                expect.dispatched,
                "{case}: dispatched {seen:?}"
            );
            assert!(answer.len() <= MAX_FRAME, "{case}: unframeable answer");
        }
    }

    #[test]
    fn paged_transfer_reads_the_snapshot_pinned_at_offset_zero() {
        let fake = Fake {
            publisher: SnapshotPublisher::new(),
        };
        let pinned_epoch = fake.publish(0..10);
        let mut conn = ConnState::pre_greeted();
        let mut seen = Vec::new();
        let mut page = |since_epoch, offset| {
            let request = Request::SnapshotPage {
                since_epoch,
                offset,
                limit: 4,
            };
            match serve_request(&fake, &mut conn, request, &mut seen).response {
                Response::SnapshotPage {
                    entries,
                    total_entries,
                    done,
                    unchanged,
                    stamp,
                    ..
                } => (entries.len(), total_entries, done, unchanged, stamp.epoch),
                other => panic!("unexpected: {other:?}"),
            }
        };
        assert_eq!(page(0, 0), (4, 10, false, false, pinned_epoch));

        // A republish lands mid-transfer; later pages do not see it.
        let fresh_epoch = fake.publish(0..25);
        assert_eq!(page(0, 4), (4, 10, false, false, pinned_epoch));
        assert_eq!(page(0, 8), (2, 10, true, false, pinned_epoch));

        // Offset 0 re-pins the fresh snapshot; a holder of that epoch
        // gets the `unchanged` short-circuit.
        assert_eq!(page(0, 0), (4, 25, false, false, fresh_epoch));
        assert_eq!(page(fresh_epoch, 0), (0, 25, true, true, fresh_epoch));

        // A transfer that never sent offset 0 pins on its first page.
        let mut cold = ConnState::pre_greeted();
        let request = Request::SnapshotPage {
            since_epoch: 0,
            offset: 20,
            limit: 100,
        };
        match serve_request(&fake, &mut cold, request, &mut Vec::new()).response {
            Response::SnapshotPage { entries, done, .. } => {
                assert_eq!((entries.len(), done), (5, true))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
