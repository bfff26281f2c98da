//! The query model of the paper (§3.2).
//!
//! Four query shapes are supported:
//!
//! * **Query 1 — point**: `IsElementFrequent(e)` / `IsElementInTopk(e)`.
//! * **Query 2 — set**: all frequent elements / the top-k set.
//! * **Query 3 — interval/discrete**: a point or set query re-evaluated
//!   every *n* updates (or every Δt). This is the shape the parallel engines
//!   actually serve; the benchmark harness poses one every 50 000 updates as
//!   the paper does.
//! * **Query 4 — continuous**: a query re-evaluated on every update. As the
//!   paper argues, "every update" is ill-defined under parallel processing,
//!   so continuous queries are modelled as interval queries with period 1 and
//!   only supported by the sequential engines.

use crate::counter::CounterEntry;
use crate::element::Element;
use crate::json_record;

json_record! {
    /// A frequency threshold: either an absolute count or a fraction φ of the
    /// stream length ("clicked more than 0.1% of the total clicks").
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Threshold {
        /// Absolute minimum count.
        Count(u64),
        /// Fraction of the processed stream length, in `[0, 1]`.
        Fraction(f64),
    }
}

impl Threshold {
    /// Resolve against the number of processed elements.
    pub fn resolve(self, total: u64) -> u64 {
        match self {
            Threshold::Count(c) => c,
            Threshold::Fraction(f) => {
                debug_assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
                // ceil(f * total), computed in f64: exact enough for the
                // stream lengths used here and saturating at the ends.
                (f * total as f64).ceil().max(0.0) as u64
            }
        }
    }
}

json_record! {
    /// Query 1: a boolean query about a single element.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum PointQuery<K> {
        /// `IsElementFrequent(e)` at the given threshold.
        IsFrequent {
            /// The element asked about.
            item: K,
            /// The frequency threshold.
            threshold: Threshold,
        },
        /// `IsElementInTopk(e)`.
        IsInTopK {
            /// The element asked about.
            item: K,
            /// The rank cutoff.
            k: usize,
        },
    }
}

json_record! {
    /// Query 2: a query returning a set of elements.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum SetQuery {
        /// All elements whose estimated count meets the threshold.
        Frequent {
            /// The frequency threshold.
            threshold: Threshold,
        },
        /// The k most frequent elements.
        TopK {
            /// How many elements to report.
            k: usize,
        },
    }
}

json_record! {
    /// How often an interval (Query 3) evaluation fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum QueryPeriod {
        /// Every `n` processed updates (the paper's experiments use 50 000).
        Updates(u64),
    }
}

json_record! {
    /// Queries 3/4: a point or set query plus a re-evaluation period.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct IntervalQuery<K> {
        /// What to evaluate.
        pub query: QueryKind<K>,
        /// How often.
        pub period: QueryPeriod,
    }
}

json_record! {
    /// Either query shape, for interval scheduling.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum QueryKind<K> {
        /// A point query.
        Point(PointQuery<K>),
        /// A set query.
        Set(SetQuery),
    }
}

json_record! {
    /// The answer to a query.
    #[derive(Debug, Clone, PartialEq)]
    pub enum QueryAnswer<K> {
        /// Answer to a point query.
        Bool(bool),
        /// Answer to a set query: entries in decreasing-count order.
        Set(Vec<CounterEntry<K>>),
    }
}

impl<K: Element> QueryAnswer<K> {
    /// Unwrap a boolean answer.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryAnswer::Bool(b) => Some(*b),
            QueryAnswer::Set(_) => None,
        }
    }

    /// Unwrap a set answer.
    pub fn as_set(&self) -> Option<&[CounterEntry<K>]> {
        match self {
            QueryAnswer::Bool(_) => None,
            QueryAnswer::Set(s) => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_resolution() {
        assert_eq!(Threshold::Count(7).resolve(1000), 7);
        assert_eq!(Threshold::Fraction(0.001).resolve(100_000), 100);
        assert_eq!(Threshold::Fraction(0.0).resolve(500), 0);
        assert_eq!(Threshold::Fraction(1.0).resolve(500), 500);
        // ceil semantics: 0.1% of 1001 = 1.001 -> 2.
        assert_eq!(Threshold::Fraction(0.001).resolve(1001), 2);
        // Zero-length stream.
        assert_eq!(Threshold::Fraction(0.5).resolve(0), 0);
    }

    #[test]
    fn answer_accessors() {
        let b: QueryAnswer<u64> = QueryAnswer::Bool(true);
        assert_eq!(b.as_bool(), Some(true));
        assert!(b.as_set().is_none());
        let s: QueryAnswer<u64> = QueryAnswer::Set(vec![CounterEntry::new(1, 2, 0)]);
        assert!(s.as_bool().is_none());
        assert_eq!(s.as_set().unwrap().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let q: IntervalQuery<u64> = IntervalQuery {
            query: QueryKind::Set(SetQuery::TopK { k: 25 }),
            period: QueryPeriod::Updates(50_000),
        };
        let json = crate::json::to_string(&q);
        let back: IntervalQuery<u64> = crate::json::from_str(&json).unwrap();
        assert_eq!(q, back);

        let p: QueryKind<u64> = QueryKind::Point(PointQuery::IsFrequent {
            item: 9,
            threshold: Threshold::Fraction(0.25),
        });
        let back: QueryKind<u64> = crate::json::from_str(&crate::json::to_string(&p)).unwrap();
        assert_eq!(p, back);

        let a: QueryAnswer<u64> = QueryAnswer::Set(vec![CounterEntry::new(1, 2, 0)]);
        let back: QueryAnswer<u64> = crate::json::from_str(&crate::json::to_string(&a)).unwrap();
        assert_eq!(a, back);
    }
}
