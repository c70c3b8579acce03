//! The operator registry behind the **Operate** interface (§4.3).
//!
//! Applications register operators that are *associative and commutative*
//! (`val ⊕ arg1 ⊕ arg2 = val ⊕ (arg1 ⊕ arg2)`, Equation 1) together with an
//! identity element. The runtime uses the identity to initialize operand
//! cachelines in the Operated state and the combine function both for local
//! combining and for the home-node reduction.

use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::element::Element;

/// Identifier assigned by [`OpRegistry::register`]; passed to
/// [`crate::DArray::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

struct RegisteredOp {
    name: String,
    identity: u64,
    combine: Box<dyn Fn(u64, u64) -> u64 + Send + Sync>,
}

/// Slots in segment 0. Segment `s` holds `FIRST << s`, so the segments
/// double and [`SEGMENTS`] of them cover every `u32` id.
const FIRST: usize = 8;
const SEGMENTS: usize = 30;

/// Segment and slot of operator `id`: ids `FIRST·(2ˢ − 1) ..
/// FIRST·(2ˢ⁺¹ − 1)` live in segment `s`.
fn slot(id: usize) -> (usize, usize) {
    let j = id + FIRST;
    let s = (j.ilog2() - FIRST.ilog2()) as usize;
    (s, j - (FIRST << s))
}

/// Cluster-wide operator registry. Registration typically happens during
/// application start-up (Figure 8, line 2) and takes a lock; lookups on
/// the combining fast path take none.
///
/// Operators live in doubling segments, each allocated by the registration
/// that first needs it and never moved or freed while the registry lives.
/// A slot is a [`OnceLock`] written once, so a lookup is two acquire loads
/// (the segment, then the slot) and sees either nothing or the complete
/// operator.
#[derive(Default)]
pub struct OpRegistry {
    segments: [OnceLock<Box<[OnceLock<RegisteredOp>]>>; SEGMENTS],
    /// Operators registered so far; held across a registration so ids are
    /// sequential.
    len: Mutex<usize>,
}

impl OpRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an associative + commutative operator with its identity
    /// element and obtain an [`OpId`] (the paper's `registerOp`).
    ///
    /// The identity must satisfy `combine(identity, x) == x`; this is
    /// checked probabilistically in debug builds via the registry tests and
    /// by property tests in this module.
    ///
    /// Panics once every `u32` id is taken.
    pub fn register<T, F>(&self, name: &str, identity: T, combine: F) -> OpId
    where
        T: Element,
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let f =
            move |a: u64, b: u64| -> u64 { combine(T::from_bits(a), T::from_bits(b)).to_bits() };
        let mut len = self.len.lock();
        let id = u32::try_from(*len)
            .unwrap_or_else(|_| panic!("operator registry full: every u32 id is taken"));
        let (s, i) = slot(*len);
        let segment =
            self.segments[s].get_or_init(|| (0..FIRST << s).map(|_| OnceLock::new()).collect());
        let fresh = segment[i]
            .set(RegisteredOp {
                name: name.to_string(),
                identity: identity.to_bits(),
                combine: Box::new(f),
            })
            .is_ok();
        assert!(fresh, "operator id {id} registered twice");
        *len += 1;
        OpId(id)
    }

    /// The operator registered under `op`; panics if there is none.
    #[inline]
    fn get(&self, op: OpId) -> &RegisteredOp {
        let (s, i) = slot(op.0 as usize);
        match self.segments[s].get().and_then(|segment| segment[i].get()) {
            Some(registered) => registered,
            None => unregistered(op),
        }
    }

    /// Combine two raw words under `op`.
    #[inline]
    pub fn combine(&self, op: OpId, a: u64, b: u64) -> u64 {
        (self.get(op).combine)(a, b)
    }

    /// The identity word of `op`.
    #[inline]
    pub fn identity(&self, op: OpId) -> u64 {
        self.get(op).identity
    }

    /// Registered operator name (diagnostics).
    pub fn name(&self, op: OpId) -> String {
        self.get(op).name.clone()
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        *self.len.lock()
    }

    /// True if no operator has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cold]
fn unregistered(op: OpId) -> ! {
    panic!("unregistered operator {op:?}")
}

/// Convenience constructors for the operators the paper uses.
impl OpRegistry {
    /// `write_add` over `f64` (PageRank's rank accumulation, Figure 8).
    pub fn register_add_f64(&self) -> OpId {
        self.register("write_add_f64", 0.0f64, |a, b| a + b)
    }

    /// `write_add` over `u64`.
    pub fn register_add_u64(&self) -> OpId {
        self.register("write_add_u64", 0u64, |a, b| a.wrapping_add(b))
    }

    /// `write_min` over `u64` (Connected Components' label propagation).
    pub fn register_min_u64(&self) -> OpId {
        self.register("write_min_u64", u64::MAX, |a, b| a.min(b))
    }

    /// `write_max` over `u64`.
    pub fn register_max_u64(&self) -> OpId {
        self.register("write_max_u64", 0u64, |a, b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_sequential_ids() {
        let r = OpRegistry::new();
        let a = r.register_add_u64();
        let b = r.register_min_u64();
        assert_eq!(a, OpId(0));
        assert_eq!(b, OpId(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "write_add_u64");
    }

    #[test]
    fn combine_applies_the_operator() {
        let r = OpRegistry::new();
        let add = r.register_add_u64();
        let min = r.register_min_u64();
        assert_eq!(r.combine(add, 2, 3), 5);
        assert_eq!(r.combine(min, 2, 3), 2);
    }

    #[test]
    fn identity_is_neutral() {
        let r = OpRegistry::new();
        let add = r.register_add_f64();
        let min = r.register_min_u64();
        let max = r.register_max_u64();
        for x in [0u64, 1, 7, u64::MAX / 2] {
            assert_eq!(r.combine(min, r.identity(min), x), x);
            assert_eq!(r.combine(max, r.identity(max), x), x);
        }
        let x = 3.25f64;
        assert_eq!(
            f64::from_bits(r.combine(add, r.identity(add), x.to_bits())),
            x
        );
    }

    #[test]
    fn typed_operator_roundtrips_through_bits() {
        let r = OpRegistry::new();
        let op = r.register("sub_abs", 0i64, |a: i64, b: i64| (a - b).abs());
        let out = r.combine(op, (-5i64).to_bits(), 3i64.to_bits());
        assert_eq!(i64::from_bits(out), 8);
    }

    #[test]
    fn slots_tile_the_segments() {
        let mut next = (0, 0);
        for id in 0..10_000 {
            assert_eq!(slot(id), next, "id {id}");
            next = if next.1 + 1 == FIRST << next.0 {
                (next.0 + 1, 0)
            } else {
                (next.0, next.1 + 1)
            };
        }
        assert_eq!(slot(u32::MAX as usize).0, SEGMENTS - 1);
    }

    #[test]
    #[should_panic(expected = "unregistered operator OpId(3)")]
    fn unregistered_id_panics() {
        let r = OpRegistry::new();
        r.register_add_u64();
        r.combine(OpId(3), 1, 2);
    }

    /// Registrations from several OS threads race lookups of every id
    /// registered so far. Operator `tag` has identity `tag` and combines
    /// as `a ^ b ^ tag`, so a lookup that saw half an operator, or another
    /// id's, breaks `combine(identity, x) == x` or `combine(0, 0) ==
    /// identity`.
    #[test]
    fn registrations_race_lookups() {
        const WRITERS: u64 = 3;
        const PER_WRITER: u64 = 150; // ids 0..450 span six segments
        let r = OpRegistry::new();
        let start = std::sync::Barrier::new(WRITERS as usize + 2);
        let registered = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (r, start) = (&r, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..PER_WRITER)
                            .map(|k| {
                                let tag = w << 32 | k;
                                (
                                    r.register("xor_tag", tag, move |a: u64, b| a ^ b ^ tag),
                                    tag,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for _ in 0..2 {
                let (r, start) = (&r, &start);
                scope.spawn(move || {
                    start.wait();
                    loop {
                        let seen = r.len();
                        for id in 0..seen as u32 {
                            let op = OpId(id);
                            let identity = r.identity(op);
                            assert_eq!(r.combine(op, 0, 0), identity);
                            assert_eq!(r.combine(op, identity, 0x5a5a), 0x5a5a);
                        }
                        if seen == (WRITERS * PER_WRITER) as usize {
                            break;
                        }
                    }
                });
            }
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect::<Vec<_>>()
        });
        let mut ids: Vec<u32> = registered.iter().map(|(op, _)| op.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..(WRITERS * PER_WRITER) as u32).collect::<Vec<_>>());
        for (op, tag) in registered {
            assert_eq!(r.identity(op), tag);
            assert_eq!(r.combine(op, 6, 3), 6 ^ 3 ^ tag);
        }
    }

    #[test]
    fn equation_1_associativity_for_builtin_ops() {
        // val ⊕ arg1 ⊕ arg2 == val ⊕ (arg1 ⊕ arg2) for the shipped ops.
        let r = OpRegistry::new();
        let ops = [
            r.register_add_u64(),
            r.register_min_u64(),
            r.register_max_u64(),
        ];
        let vals = [0u64, 1, 99, 1 << 40, u64::MAX >> 1];
        for &op in &ops {
            for &v in &vals {
                for &a1 in &vals {
                    for &a2 in &vals {
                        let left = r.combine(op, r.combine(op, v, a1), a2);
                        let right = r.combine(op, v, r.combine(op, a1, a2));
                        assert_eq!(left, right);
                    }
                }
            }
        }
    }
}
