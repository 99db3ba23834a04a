//! Tabular simulation traces.
//!
//! A [`Trace`] is a small column store: named columns of equal length,
//! appended row by row as a simulation progresses.  It is the common output
//! format of the sweep drivers, the event-kernel testbenches and the
//! analogue transient analysis, and the input format of the CSV/ASCII
//! exporters.

use crate::error::WaveformError;

/// A named-column table of `f64` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    names: Vec<String>,
    columns: Vec<Vec<f64>>,
}

impl Trace {
    /// Creates a trace with the given column names and no rows.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        Self::with_capacity(names, 0)
    }

    /// Creates a trace with the given column names and every column
    /// preallocated for `rows` rows — the sweep drivers know their sample
    /// count up front, so filling the trace never reallocates.
    pub fn with_capacity<S: Into<String>, I: IntoIterator<Item = S>>(
        names: I,
        rows: usize,
    ) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let columns = names.iter().map(|_| Vec::with_capacity(rows)).collect();
        Self { names, columns }
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// `true` when the trace has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::ColumnLengthMismatch`] when the row does not
    /// have exactly one value per column.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), WaveformError> {
        if row.len() != self.names.len() {
            return Err(WaveformError::ColumnLengthMismatch {
                column: "<row>".into(),
                expected: self.names.len(),
                actual: row.len(),
            });
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        Ok(())
    }

    /// Borrow a column by name.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::UnknownColumn`] when no column has that name.
    pub fn column(&self, name: &str) -> Result<&[f64], WaveformError> {
        let idx = self.names.iter().position(|n| n == name).ok_or_else(|| {
            WaveformError::UnknownColumn {
                column: name.to_owned(),
            }
        })?;
        Ok(&self.columns[idx])
    }

    /// Borrow a column by index.
    pub fn column_at(&self, index: usize) -> Option<&[f64]> {
        self.columns.get(index).map(Vec::as_slice)
    }

    /// Returns one row as a vector.
    pub fn row(&self, index: usize) -> Option<Vec<f64>> {
        if index >= self.len() {
            return None;
        }
        Some(self.columns.iter().map(|c| c[index]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rows_and_read_columns() {
        let mut t = Trace::new(["h", "b", "m"]);
        t.push_row(&[0.0, 0.0, 0.0]).unwrap();
        t.push_row(&[10.0, 0.1, 100.0]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.width(), 3);
        assert_eq!(t.column("b").unwrap(), &[0.0, 0.1]);
        assert_eq!(t.row(1).unwrap(), vec![10.0, 0.1, 100.0]);
        assert!(t.row(2).is_none());
        assert_eq!(t.column_at(0).unwrap(), &[0.0, 10.0]);
        assert!(t.column_at(7).is_none());
    }

    #[test]
    fn row_width_mismatch_rejected() {
        let mut t = Trace::new(["a", "b"]);
        assert!(t.push_row(&[1.0]).is_err());
        assert!(t.push_row(&[1.0, 2.0, 3.0]).is_err());
        assert!(t.push_row(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn unknown_column_rejected() {
        let t = Trace::new(["x"]);
        assert!(matches!(
            t.column("y"),
            Err(WaveformError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn with_capacity_preallocates_every_column() {
        let mut t = Trace::with_capacity(["h", "b"], 64);
        assert!(t.is_empty());
        assert_eq!(t.width(), 2);
        t.push_row(&[1.0, 2.0]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::new(["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.names(), &["a".to_string()]);
    }
}
