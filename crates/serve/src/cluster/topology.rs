//! Cluster topology: the member list and the key-routing function.
//!
//! Routing reuses the exact hash the single-node shard router uses
//! ([`cots_core::MulHash`]), but takes the member from its *high* bits
//! (`hash × members >> 64`) where the shard router takes the shard from
//! its residue (`hash % shards`). Taking both from the residue would
//! correlate them: with 2 members of 2 shards, every key a member owns
//! would land on one of its shards and the other worker would idle.
//!
//! The merge algebra is partition-agnostic — `merge_snapshots` keeps the
//! Space-Saving envelope under *any* assignment of keys to members — so
//! correctness never depends on this function; it only shapes load.
//! That is also why spillover routing (sending a primary's keys to the
//! next live member while the primary is down) is sound.

use cots_core::{CotsError, MulHash, Result};

/// Parse one `--members` entry into `(primary, standby)`.
///
/// A member is `ADDR` or `PRIMARY/STANDBY` (slash-separated — `,`
/// already separates members in a `--members` list). Each side is taken
/// verbatim as one address, so IPv6 (`[::1]:7001`) and any host
/// containing `:` work, and nothing is guessed from an address's shape:
/// a typo surfaces when the coordinator fails to connect and reports the
/// member, spelled as given, degraded.
pub fn parse_member_spec(spec: &str) -> Result<(String, Option<String>)> {
    match spec.split_once('/') {
        None if !spec.is_empty() => Ok((spec.to_string(), None)),
        Some((primary, standby))
            if !primary.is_empty() && !standby.is_empty() && !standby.contains('/') =>
        {
            Ok((primary.to_string(), Some(standby.to_string())))
        }
        _ => Err(CotsError::InvalidConfig(format!(
            "cannot parse member spec `{spec}` (expected ADDR or PRIMARY/STANDBY with \
             non-empty addresses)"
        ))),
    }
}

/// Parse a full `--members` list into parallel `(primaries, standbys)`
/// vectors; slot `i` of `standbys` is `None` for unreplicated members.
pub fn parse_members(specs: &[String]) -> Result<(Vec<String>, Vec<Option<String>>)> {
    let mut primaries = Vec::with_capacity(specs.len());
    let mut standbys = Vec::with_capacity(specs.len());
    for spec in specs {
        let (primary, standby) = parse_member_spec(spec)?;
        primaries.push(primary);
        standbys.push(standby);
    }
    Ok((primaries, standbys))
}

/// An ordered list of member addresses plus the routing function.
#[derive(Debug, Clone)]
pub struct Topology {
    members: Vec<String>,
}

impl Topology {
    /// Build a topology from `host:port` strings. Errors on an empty
    /// list — a coordinator with no members cannot answer anything.
    pub fn new(members: Vec<String>) -> Result<Self> {
        if members.is_empty() {
            return Err(CotsError::InvalidConfig(
                "cluster topology needs at least one member".into(),
            ));
        }
        Ok(Self { members })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the topology has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Address of member `idx`.
    pub fn addr(&self, idx: usize) -> &str {
        self.members.get(idx).map(String::as_str).unwrap_or("")
    }

    /// All member addresses, in index order.
    pub fn addrs(&self) -> &[String] {
        &self.members
    }

    /// The member that owns `key`: same multiplicative hash as the
    /// single-node shard router, scaled to the member count by its high
    /// bits, so a member's keys still spread over all of its shards.
    pub fn member_of(&self, key: u64) -> usize {
        ((MulHash::hash(&key) as u128 * self.members.len() as u128) >> 64) as usize
    }

    /// Candidate delivery order for a batch owned by `primary`: the
    /// primary itself, then each other member in ring order (the
    /// spillover sequence when earlier candidates are down).
    pub fn route_order(&self, primary: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.members.len();
        (0..n).map(move |step| (primary + step) % n)
    }

    /// Partition `keys` by owning member, preserving arrival order
    /// within each part.
    pub fn partition(&self, keys: &[u64]) -> Vec<Vec<u64>> {
        let mut parts = vec![Vec::new(); self.members.len()];
        for &key in keys {
            let owner = self.member_of(key);
            if let Some(part) = parts.get_mut(owner) {
                part.push(key);
            }
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_topology_is_rejected() {
        assert!(Topology::new(Vec::new()).is_err());
    }

    #[test]
    fn partition_covers_every_key_exactly_once() {
        let topo = Topology::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let keys: Vec<u64> = (0..10_000).collect();
        let parts = topo.partition(&keys);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, keys.len());
        for (idx, part) in parts.iter().enumerate() {
            for key in part {
                assert_eq!(topo.member_of(*key), idx);
            }
        }
    }

    #[test]
    fn routing_spreads_keys_reasonably() {
        let topo = Topology::new(vec!["a".into(), "b".into(), "c".into(), "d".into()]).unwrap();
        let parts = topo.partition(&(0..40_000u64).collect::<Vec<_>>());
        for part in &parts {
            // Perfect balance would be 10 000; MulHash keeps every
            // member within a loose band.
            assert!(part.len() > 7_000 && part.len() < 13_000, "{}", part.len());
        }
    }

    #[test]
    fn route_order_visits_every_member_once_starting_at_primary() {
        let topo = Topology::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let order: Vec<usize> = topo.route_order(1).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn member_specs_take_each_address_verbatim() {
        assert_eq!(parse_member_spec("a").unwrap(), ("a".into(), None));
        assert_eq!(
            parse_member_spec("127.0.0.1:7001").unwrap(),
            ("127.0.0.1:7001".into(), None)
        );
        assert_eq!(
            parse_member_spec("a/b").unwrap(),
            ("a".into(), Some("b".into()))
        );
        assert_eq!(
            parse_member_spec("127.0.0.1:7001/127.0.0.1:8001").unwrap(),
            ("127.0.0.1:7001".into(), Some("127.0.0.1:8001".into()))
        );
        // IPv6 works as a single member and as a pair.
        assert_eq!(
            parse_member_spec("[::1]:7001").unwrap(),
            ("[::1]:7001".into(), None)
        );
        assert_eq!(
            parse_member_spec("[::1]:7001/[::1]:8001").unwrap(),
            ("[::1]:7001".into(), Some("[::1]:8001".into()))
        );
        // Colons never split a member: this is one (unreachable) address,
        // not a pair.
        assert_eq!(
            parse_member_spec("127.0.0.1:7001:127.0.0.1:8001").unwrap(),
            ("127.0.0.1:7001:127.0.0.1:8001".into(), None)
        );
        for malformed in ["", "a/", "/b", "a/b/c", "/"] {
            let err = parse_member_spec(malformed).unwrap_err().to_string();
            assert!(err.contains(&format!("`{malformed}`")), "{err}");
        }

        let (primaries, standbys) = parse_members(&[
            "127.0.0.1:7001/127.0.0.1:8001".to_string(),
            "127.0.0.1:7002".to_string(),
        ])
        .unwrap();
        assert_eq!(primaries, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(standbys, vec![Some("127.0.0.1:8001".to_string()), None]);
    }

    /// Member routing and the members' own shard routing hash the same
    /// value; every shard of every member must still get a fair share of
    /// that member's keys.
    #[test]
    fn every_member_feeds_every_one_of_its_shards() {
        let keys: Vec<u64> = (0..200_000).collect();
        for members in 1..=4usize {
            let topo = Topology::new((0..members).map(|m| m.to_string()).collect()).unwrap();
            let parts = topo.partition(&keys);
            for shards in [1, 2, 4, 8] {
                for (member, part) in parts.iter().enumerate() {
                    let mut per_shard = vec![0usize; shards];
                    for &key in part {
                        per_shard[crate::ShardSender::shard_of(key, shards)] += 1;
                    }
                    let floor = part.len() / (2 * shards);
                    assert!(
                        per_shard.iter().all(|&n| n >= floor),
                        "{members} members × {shards} shards: member {member} \
                         spreads {per_shard:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_member_owns_everything() {
        let topo = Topology::new(vec!["only".into()]).unwrap();
        for key in 0..100u64 {
            assert_eq!(topo.member_of(key), 0);
        }
    }
}
