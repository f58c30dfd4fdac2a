//! Registered-domain interning.
//!
//! The analyses in `taster-analysis` are set and multiset operations
//! over millions of feed records. Interning registered domains to
//! dense `u32` ids turns those into bit-set and vector operations.

use crate::fx::FxHashMap;

/// Backwards-compatible name for [`crate::bitset::DomainBitset`],
/// which used to live in this module.
pub use crate::bitset::DomainBitset as DomainSet;

/// A dense identifier for an interned registered domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only interner from registered-domain text to [`DomainId`].
///
/// Ids are assigned in first-seen order, which makes runs reproducible
/// given a deterministic generation order.
#[derive(Debug, Default, Clone)]
pub struct DomainTable {
    by_text: FxHashMap<String, DomainId>,
    by_id: Vec<String>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns raw registered-domain text.
    ///
    /// The caller is responsible for the text already being a
    /// normalised registered domain (lowercase, no trailing dot);
    /// this is the hot path and performs no validation.
    pub fn intern_str(&mut self, text: &str) -> DomainId {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        #[expect(
            clippy::panic,
            reason = "id aliasing past u32::MAX would silently corrupt every downstream table; abort loudly instead"
        )]
        let Ok(raw) = u32::try_from(self.by_id.len()) else {
            panic!("domain interner exhausted: more than u32::MAX distinct domains");
        };
        let id = DomainId(raw);
        self.by_text.insert(text.to_string(), id);
        self.by_id.push(text.to_string());
        id
    }

    /// Looks up an id without interning.
    pub fn get(&self, text: &str) -> Option<DomainId> {
        self.by_text.get(text).copied()
    }

    /// Resolves an id back to its text. Panics on a foreign id.
    pub fn text(&self, id: DomainId) -> &str {
        &self.by_id[id.index()]
    }

    /// Number of interned domains.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterates `(id, text)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, s)| (DomainId(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = DomainTable::new();
        let a = t.intern_str("example.com");
        let b = t.intern_str("example.org");
        let a2 = t.intern_str("example.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.text(a), "example.com");
        assert_eq!(t.get("example.org"), Some(b));
        assert_eq!(t.get("missing.net"), None);
    }

    #[test]
    fn iter_is_in_id_order() {
        let mut t = DomainTable::new();
        for d in ["c.com", "a.com", "b.com"] {
            t.intern_str(d);
        }
        let texts: Vec<_> = t.iter().map(|(_, s)| s).collect();
        assert_eq!(texts, vec!["c.com", "a.com", "b.com"]);
    }
}
