//! Node and variable identifiers.

use std::fmt;

/// Index of a BDD variable; doubles as its level in the (static) order.
///
/// Variables created earlier with [`crate::Manager::new_var`] sit higher in
/// the diagram (closer to the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VarId {
    fn from(v: u32) -> Self {
        VarId(v)
    }
}

/// Handle to a node in a [`crate::Manager`].
///
/// `NodeId`s are only meaningful relative to the manager that produced them.
/// Two equal `NodeId`s from the same manager denote the same Boolean
/// function (canonicity of ROBDDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant `0` (false) function.
    pub const FALSE: NodeId = NodeId(0);
    /// The constant `1` (true) function.
    pub const TRUE: NodeId = NodeId(1);

    /// Is this one of the two terminal nodes?
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Is this the constant-false node?
    #[inline]
    pub fn is_false(self) -> bool {
        self == NodeId::FALSE
    }

    /// Is this the constant-true node?
    #[inline]
    pub fn is_true(self) -> bool {
        self == NodeId::TRUE
    }

    /// Raw index into the manager's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeId::FALSE => write!(f, "⊥"),
            NodeId::TRUE => write!(f, "⊤"),
            NodeId(n) => write!(f, "n{n}"),
        }
    }
}

/// Internal node representation: `ITE(var, hi, lo)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    /// Level/variable index; `u32::MAX` for terminals so they sort below
    /// every real variable.
    pub var: u32,
    /// Cofactor with `var = 0`.
    pub lo: NodeId,
    /// Cofactor with `var = 1`.
    pub hi: NodeId,
}

pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_predicates() {
        assert!(NodeId::FALSE.is_terminal());
        assert!(NodeId::TRUE.is_terminal());
        assert!(NodeId::FALSE.is_false());
        assert!(NodeId::TRUE.is_true());
        assert!(!NodeId(5).is_terminal());
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::FALSE.to_string(), "⊥");
        assert_eq!(NodeId::TRUE.to_string(), "⊤");
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(VarId(3).to_string(), "v3");
    }
}
