//! Matrix access patterns under skewing schemes.
//!
//! The classic motivation for skewed storage (\[1\], \[4\]): an `N × N` matrix
//! stored column-major with leading dimension `N` has unit-stride columns
//! but stride-`N` rows and stride-`N+1` diagonals. When `N` is a multiple
//! of the bank count, rows and diagonals collapse onto few banks. This
//! module measures the solo bandwidth of all three walks under any
//! [`BankMapping`], plus the paper's software fix (padding the leading
//! dimension).

use crate::eval::{single_stream_bandwidth, AddressStream};
use crate::scheme::BankMapping;
use vecmem_analytic::{Geometry, Ratio};
use vecmem_banksim::steady::SteadyStateError;
use vecmem_banksim::SimConfig;

/// Bandwidths of the three canonical matrix walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixWalks {
    /// Unit-stride column walk.
    pub column: Ratio,
    /// Stride-`ld` row walk.
    pub row: Ratio,
    /// Stride-`ld + 1` diagonal walk.
    pub diagonal: Ratio,
}

impl MatrixWalks {
    /// The worst of the three walks.
    #[must_use]
    pub fn worst(&self) -> Ratio {
        self.column.min(self.row).min(self.diagonal)
    }
}

/// Measures the three walks of a matrix with leading dimension `ld` under
/// `mapping`, on a memory with the given bank cycle time.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any walk fails to reach a cyclic
/// state within the internal cycle budget.
pub fn matrix_walks<M: BankMapping + ?Sized>(
    mapping: &M,
    bank_cycle: u64,
    ld: u64,
) -> Result<MatrixWalks, SteadyStateError> {
    #[expect(
        clippy::expect_used,
        reason = "a mapping has at least one bank, and callers pass a nonzero bank cycle"
    )]
    let geom = Geometry::unsectioned(mapping.banks(), bank_cycle).expect("geometry");
    let config = SimConfig::single_cpu(geom, 1);
    let walk = |stride: u64| {
        single_stream_bandwidth(
            mapping,
            &config,
            AddressStream { start: 0, stride },
            5_000_000,
        )
    };
    Ok(MatrixWalks {
        column: walk(1)?,
        row: walk(ld)?,
        diagonal: walk(ld + 1)?,
    })
}

/// One row of the matrix-walk comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Scheme name.
    pub scheme: String,
    /// Leading dimension used.
    pub ld: u64,
    /// Measured walks.
    pub walks: MatrixWalks,
}

/// Compares schemes (and the padded leading dimension) for an `N × N`
/// matrix on `banks` banks.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any scheme's walk fails to reach a
/// cyclic state within the internal cycle budget.
pub fn compare_schemes(
    schemes: &[&dyn BankMapping],
    bank_cycle: u64,
    n: u64,
) -> Result<Vec<MatrixRow>, SteadyStateError> {
    let mut rows = Vec::new();
    for &scheme in schemes {
        let walks = matrix_walks(scheme, bank_cycle, n)?;
        rows.push(MatrixRow {
            scheme: scheme.name(),
            ld: n,
            walks,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSkew;
    use crate::scheme::Interleaved;
    use crate::xorfold::XorFold;

    #[test]
    fn plain_interleaving_collapses_rows() {
        // N = 16 on 16 banks: rows (stride 16) and the whole matrix walk
        // hit one bank; columns are perfect; diagonals (stride 17 ≡ 1) are
        // perfect too.
        let walks = matrix_walks(&Interleaved { banks: 16 }, 4, 16).unwrap();
        assert_eq!(walks.column, Ratio::integer(1));
        assert_eq!(walks.row, Ratio::new(1, 4)); // r = 1, n_c = 4
        assert_eq!(walks.diagonal, Ratio::integer(1));
        assert!(walks.worst() < Ratio::integer(1));
        assert_eq!(walks.worst(), Ratio::new(1, 4));
    }

    #[test]
    fn padding_fixes_rows_without_hardware() {
        // The paper's advice: pad the leading dimension to 17 (coprime to
        // 16): rows become stride 17 ≡ 1 -> full bandwidth; diagonals
        // stride 18 ≡ 2 -> r = 8 >= n_c -> full.
        let walks = matrix_walks(&Interleaved { banks: 16 }, 4, 17).unwrap();
        assert_eq!(walks.worst(), Ratio::integer(1), "{walks:?}");
    }

    #[test]
    fn classic_skew_fixes_rows_in_hardware() {
        // Same unpadded N = 16 matrix, but rows now rotate across banks.
        let walks = matrix_walks(&LinearSkew::classic(16), 4, 16).unwrap();
        assert_eq!(walks.row, Ratio::integer(1), "{walks:?}");
        assert_eq!(walks.column, Ratio::integer(1));
        // The classic skew famously does NOT fix the diagonal (stride
        // N + 1 walks bank (a + a/N) with both parts advancing together).
        assert!(walks.diagonal <= Ratio::integer(1));
    }

    #[test]
    fn xor_fold_improves_worst_case() {
        let plain = matrix_walks(&Interleaved { banks: 16 }, 4, 16).unwrap();
        let fold = matrix_walks(&XorFold::new(16), 4, 16).unwrap();
        assert!(
            fold.worst() > plain.worst(),
            "plain {plain:?} vs fold {fold:?}"
        );
    }

    #[test]
    fn compare_schemes_table() {
        let plain = Interleaved { banks: 16 };
        let skewed = LinearSkew::classic(16);
        let rows = compare_schemes(&[&plain, &skewed], 4, 16).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].scheme.contains("interleaved"));
        assert!(rows[1].walks.row > rows[0].walks.row);
    }
}
