//! The coordinator's defence against an untrusted member's pages:
//! `fetch_snapshot` against a scripted fake member on a loopback socket.
//! The fake answers `HELLO`, then answers each BIN1 `SNAPSHOT_PAGE`
//! request with the next crafted response, each in its op's one form.
//! Every guard must turn its violation into a `CotsError::Protocol` that
//! names it; an honest three-page transfer must reassemble the summary.

use std::net::TcpListener;
use std::ops::Range;
use std::thread::JoinHandle;
use std::time::Duration;

use cots_core::{CotsError, CounterEntry, Snapshot};
use cots_serve::bin1;
use cots_serve::cluster::{fetch_snapshot, Fetched};
use cots_serve::frame::{read_frame, write_payload, Payload, MAX_FRAME};
use cots_serve::protocol::decode;
use cots_serve::{Client, QueryStamp, Request, Response, PROTO_VERSION};

const EPOCH: u64 = 9;
const CAPTURED: u64 = 250;
const MASS: u64 = 200;

fn summary() -> Vec<CounterEntry<u64>> {
    [(1, 50, 0), (2, 40, 1), (3, 30, 2), (4, 20, 0), (5, 10, 3)]
        .into_iter()
        .map(|(item, count, error)| CounterEntry::new(item, count, error))
        .collect()
}

/// The fields of one `SNAPSHOT_PAGE` response, so a row can bend one.
struct Page {
    entries: Vec<CounterEntry<u64>>,
    offset: usize,
    total_entries: usize,
    total: u64,
    done: bool,
    unchanged: bool,
    epoch: u64,
}

impl Page {
    /// Entries `range` of [`summary`], exactly as an honest member pages them.
    fn honest(range: Range<usize>) -> Self {
        let all = summary();
        Self {
            done: range.end == all.len(),
            offset: range.start,
            total_entries: all.len(),
            entries: all[range].to_vec(),
            total: MASS,
            unchanged: false,
            epoch: EPOCH,
        }
    }

    fn into_response(self) -> Response {
        Response::SnapshotPage {
            entries: self.entries,
            offset: self.offset,
            total_entries: self.total_entries,
            total: self.total,
            done: self.done,
            unchanged: self.unchanged,
            stamp: QueryStamp {
                epoch: self.epoch,
                captured_total: CAPTURED,
                staleness: 0,
                rotations: None,
            },
        }
    }
}

/// Serve one connection: acknowledge `HELLO`, then answer each request
/// with the next scripted response, and hang up when the script runs
/// out. Returns the requests after `HELLO`.
fn fake_member(script: Vec<Response>) -> (String, JoinHandle<Vec<Request>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let member = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = stream;
        let mut reply = |response: &Response| {
            write_payload(
                &mut writer,
                &bin1::response_payload(response, MAX_FRAME).unwrap(),
            )
            .unwrap();
        };
        let mut next_request = || match read_frame(&mut reader).unwrap() {
            Some(Payload::Json(text)) => Some(decode::<Request>(&text).unwrap()),
            Some(Payload::Bin(bytes)) => Some(bin1::decode_request(&bytes).unwrap()),
            None => None,
        };
        assert!(matches!(next_request(), Some(Request::Hello { .. })));
        reply(&Response::HelloAck {
            proto_version: PROTO_VERSION,
            features: vec![],
        });
        let mut seen = Vec::new();
        for response in script {
            let Some(request) = next_request() else { break };
            seen.push(request);
            reply(&response);
        }
        seen
    });
    (addr, member)
}

fn fetch_from(script: Vec<Response>) -> (cots_core::Result<Fetched>, Vec<Request>) {
    let (addr, member) = fake_member(script);
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let fetched = fetch_snapshot(&mut client, 0);
    drop(client);
    (fetched, member.join().unwrap())
}

#[test]
fn every_page_guard_names_its_violation() {
    let rows: Vec<(&str, Vec<Response>, &str)> = vec![
        (
            "unchanged mid-transfer",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    unchanged: true,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "`unchanged` mid-transfer",
        ),
        (
            "pin broken: epoch moves",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    epoch: EPOCH + 1,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "pin broken mid-transfer",
        ),
        (
            "pin broken: mass moves",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    total: MASS + 1,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "pin broken mid-transfer",
        ),
        (
            "pin broken: entry count moves",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    total_entries: 6,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "pin broken mid-transfer",
        ),
        (
            "offset mismatch",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    offset: 1,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "page offset mismatch: asked for 2, got 1",
        ),
        (
            "empty page without done",
            vec![Page::honest(0..0).into_response()],
            "empty page without `done`",
        ),
        (
            "over-delivery",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    entries: summary()[0..4].to_vec(),
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "over-delivered: 6 entries for a 5-entry summary",
        ),
        (
            "short transfer",
            vec![
                Page::honest(0..2).into_response(),
                Page {
                    done: true,
                    ..Page::honest(2..4)
                }
                .into_response(),
            ],
            "short transfer: 4 of 5 entries",
        ),
        (
            "error reply",
            vec![
                Page::honest(0..2).into_response(),
                Response::Error {
                    message: "disk on fire".into(),
                },
            ],
            "member refused page: disk on fire",
        ),
        (
            "not a page at all",
            vec![Response::ShuttingDown],
            "unexpected page response",
        ),
    ];
    for (name, script, expected) in rows {
        let (fetched, _) = fetch_from(script);
        match fetched {
            Err(CotsError::Protocol(message)) => assert!(
                message.contains(expected),
                "{name}: error `{message}` does not name `{expected}`"
            ),
            Err(other) => panic!("{name}: expected a protocol error, got {other:?}"),
            Ok(fetched) => panic!("{name}: hostile pages were accepted: {fetched:?}"),
        }
    }
}

#[test]
fn honest_three_page_transfer_reassembles_the_summary() {
    let script = vec![
        Page::honest(0..2).into_response(),
        Page::honest(2..4).into_response(),
        Page::honest(4..5).into_response(),
    ];
    let (fetched, requests) = fetch_from(script);
    let Fetched::Changed(got) = fetched.unwrap() else {
        panic!("an honest transfer is not `unchanged`");
    };
    assert_eq!(got.snapshot, Snapshot::new(summary(), MASS));
    assert_eq!((got.epoch, got.captured_total), (EPOCH, CAPTURED));
    let offsets: Vec<usize> = requests
        .iter()
        .map(|r| match r {
            Request::SnapshotPage { offset, .. } => *offset,
            other => panic!("expected SNAPSHOT_PAGE, got {other:?}"),
        })
        .collect();
    assert_eq!(
        offsets,
        [0, 2, 4],
        "each request resumes where the last page ended"
    );
}
