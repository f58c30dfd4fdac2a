//! A labelled pairwise matrix (the container behind Figs 2, 4, 5, 7, 8).

use crate::error::AnalysisError;
use taster_feeds::FeedId;

/// One cell of a pairwise coverage matrix: `|A ∩ B|` both absolute and
/// relative to `|B|` (the paper prints both numbers per cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapCell {
    /// `|A ∩ B|`.
    pub count: usize,
    /// `|A ∩ B| / |B|`, 0 when `|B| = 0`.
    pub fraction: f64,
}

/// A square (rows × columns) matrix over feed labels, with an optional
/// extra column (the paper's "All" or "Mail" column).
#[derive(Debug, Clone)]
pub struct PairwiseMatrix<T> {
    /// Row/column feeds, in display order.
    pub feeds: Vec<FeedId>,
    /// Label of the extra column, if any ("All", "Mail").
    pub extra_label: Option<&'static str>,
    /// `values[r][c]`; row-major; when an extra column exists each row
    /// has `feeds.len() + 1` entries with the extra last.
    values: Vec<Vec<T>>,
    /// Row index per [`FeedId::index`], so `get` is O(1) instead of a
    /// linear scan over `feeds`.
    index: Vec<Option<u8>>,
}

fn feed_index(feeds: &[FeedId]) -> Vec<Option<u8>> {
    let mut index = vec![None; FeedId::ALL.len()];
    for (i, &f) in feeds.iter().enumerate() {
        // At most ten distinct feeds exist, so the row index always
        // fits; an (impossible) overflow leaves the entry unmapped.
        index[f.index()] = u8::try_from(i).ok();
    }
    index
}

impl<T: Copy> PairwiseMatrix<T> {
    /// Builds a matrix by evaluating `f(row, col)` over all pairs and
    /// `extra(row)` for the optional extra column.
    pub fn build(
        feeds: &[FeedId],
        extra_label: Option<&'static str>,
        mut f: impl FnMut(FeedId, FeedId) -> T,
        mut extra: impl FnMut(FeedId) -> T,
    ) -> PairwiseMatrix<T> {
        let values = feeds
            .iter()
            .map(|&row| {
                let mut r: Vec<T> = feeds.iter().map(|&col| f(row, col)).collect();
                if extra_label.is_some() {
                    r.push(extra(row));
                }
                r
            })
            .collect();
        PairwiseMatrix {
            feeds: feeds.to_vec(),
            extra_label,
            values,
            index: feed_index(feeds),
        }
    }

    /// Cell at `(row, col)`; panics when either feed is absent (a
    /// caller bug — matrices are built over fixed feed lists).
    pub fn get(&self, row: FeedId, col: FeedId) -> T {
        match self.try_get(row, col) {
            Ok(v) => v,
            #[expect(
                clippy::panic,
                reason = "documented panicking accessor; the fallible path is try_get"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Cell at `(row, col)`, or a typed error when a feed is absent.
    pub fn try_get(&self, row: FeedId, col: FeedId) -> Result<T, AnalysisError> {
        let r = self.try_pos(row)?;
        let c = self.try_pos(col)?;
        Ok(self.values[r][c])
    }

    /// The extra-column entry of `row`; panics when there is none.
    pub fn get_extra(&self, row: FeedId) -> T {
        match self.try_get_extra(row) {
            Ok(v) => v,
            #[expect(
                clippy::panic,
                reason = "documented panicking accessor; the fallible path is try_get_extra"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// The extra-column entry of `row`, or a typed error when the
    /// matrix has no extra column or does not carry `row`.
    pub fn try_get_extra(&self, row: FeedId) -> Result<T, AnalysisError> {
        if self.extra_label.is_none() {
            return Err(AnalysisError::NoExtraColumn);
        }
        let r = self.try_pos(row)?;
        self.values[r]
            .last()
            .copied()
            .ok_or(AnalysisError::NoExtraColumn)
    }

    /// Number of row/column feeds.
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// True when the matrix has no feeds.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }

    fn try_pos(&self, id: FeedId) -> Result<usize, AnalysisError> {
        self.index[id.index()]
            .map(usize::from)
            .ok_or(AnalysisError::FeedNotInMatrix(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let feeds = [FeedId::Hu, FeedId::Bot];
        let m = PairwiseMatrix::build(
            &feeds,
            Some("All"),
            |a, b| (a.index() * 10 + b.index()) as i64,
            |a| -(a.index() as i64),
        );
        assert_eq!(m.get(FeedId::Hu, FeedId::Bot), 8);
        assert_eq!(m.get(FeedId::Bot, FeedId::Hu), 80);
        assert_eq!(m.get_extra(FeedId::Bot), -8);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn try_accessors_report_typed_errors() {
        use crate::error::AnalysisError;
        let m = PairwiseMatrix::build(&[FeedId::Hu], Some("All"), |_, _| 1u8, |_| 2u8);
        assert_eq!(m.try_get(FeedId::Hu, FeedId::Hu), Ok(1));
        assert_eq!(m.try_get_extra(FeedId::Hu), Ok(2));
        assert_eq!(
            m.try_get(FeedId::Bot, FeedId::Hu),
            Err(AnalysisError::FeedNotInMatrix(FeedId::Bot))
        );
        let bare = PairwiseMatrix::build(&[FeedId::Hu], None, |_, _| 0u8, |_| 0u8);
        assert_eq!(
            bare.try_get_extra(FeedId::Hu),
            Err(AnalysisError::NoExtraColumn)
        );
    }

    #[test]
    fn zero_row_matrix_is_well_defined() {
        // A matrix built over no feeds (every row degenerate) still
        // answers every structural query without panicking.
        let m = PairwiseMatrix::build(&[], Some("All"), |_, _| 0u8, |_| 0u8);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        for id in FeedId::ALL {
            assert_eq!(m.try_get(id, id), Err(AnalysisError::FeedNotInMatrix(id)));
            assert_eq!(m.try_get_extra(id), Err(AnalysisError::FeedNotInMatrix(id)));
        }
    }

    #[test]
    #[should_panic(expected = "not in matrix")]
    fn unknown_feed_panics() {
        let m = PairwiseMatrix::build(&[FeedId::Hu], None, |_, _| 0u8, |_| 0u8);
        m.get(FeedId::Bot, FeedId::Hu);
    }

    #[test]
    #[should_panic(expected = "no extra column")]
    fn missing_extra_panics() {
        let m = PairwiseMatrix::build(&[FeedId::Hu], None, |_, _| 0u8, |_| 0u8);
        m.get_extra(FeedId::Hu);
    }
}
