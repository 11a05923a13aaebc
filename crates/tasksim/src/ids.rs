//! Newtype identifiers used across the runtime.
//!
//! Every entity the dependence analysis reasons about gets a distinct id
//! type so that, e.g., a [`RegionId`] can never be confused with a
//! [`FieldId`] at a call site (C-NEWTYPE).

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A logical region in the region forest.
    RegionId
);
id_type!(
    /// A field of a region's field space.
    FieldId
);
id_type!(
    /// A registered task variant ("task id" in Legion terms).
    TaskKindId
);
id_type!(
    /// A trace identifier passed to `begin_trace` / `end_trace`.
    TraceId
);

/// A dynamically issued operation's position in the program order.
///
/// Unlike the `u32` ids above, programs can issue billions of operations,
/// so this is 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub u64);

impl OpId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next operation id in program order.
    pub fn next(self) -> OpId {
        OpId(self.0 + 1)
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpId({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_indices() {
        let r = RegionId(7);
        assert_eq!(r.index(), 7);
        assert_eq!(RegionId::from(7u32), r);
        assert_eq!(format!("{r}"), "RegionId(7)");
    }

    #[test]
    fn op_id_ordering_and_next() {
        let a = OpId(1);
        assert!(a < a.next());
        assert_eq!(a.next(), OpId(2));
        assert_eq!(format!("{a}"), "OpId(1)");
    }
}
