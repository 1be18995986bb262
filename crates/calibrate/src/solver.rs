//! Dense linear algebra for calibration: Gaussian elimination, linear
//! least squares via normal equations, condition diagnostics, and a
//! Tikhonov-ridge fallback for near-singular systems.
//!
//! The systems here are tiny (five to six unknowns, a dozen probes), so a
//! straightforward partial-pivoting implementation is both sufficient and
//! dependency-free. Malformed or unsolvable inputs surface as
//! [`CalError`]s rather than panics: a noisy calibration run that drops
//! probes must degrade gracefully, not die on an assert.

use crate::CalError;

/// Relative pivot threshold: a pivot below `PIVOT_RTOL ×` the largest
/// entry of the input matrix is treated as zero. Relative (not absolute)
/// so uniformly scaled systems are judged consistently — `A` and `1e-9·A`
/// are equally (non-)singular.
const PIVOT_RTOL: f64 = 1e-12;

/// Solves the square system `a · x = b` in place (Gaussian elimination with
/// partial pivoting). `a` is row-major `n × n`.
pub(crate) fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, CalError> {
    let n = b.len();
    if a.len() != n || a.iter().any(|row| row.len() != n) {
        return Err(CalError::ShapeMismatch {
            reason: format!("expected {n}×{n} matrix for a length-{n} right-hand side"),
        });
    }

    // The scale of the input matrix anchors the singularity test; it must
    // be captured before elimination rewrites the entries.
    let scale = a.iter().flatten().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if n > 0 && !(scale > 0.0 && scale.is_finite()) {
        return Err(CalError::SingularSystem);
    }

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        if a[pivot_row][col].abs() < PIVOT_RTOL * scale {
            return Err(CalError::SingularSystem);
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        // Eliminate below.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            // Split the borrow: the pivot row is read-only here.
            let (pivot_row_slice, target) = {
                let (head, tail) = a.split_at_mut(row);
                (&head[col], &mut tail[0])
            };
            for (t, p) in target[col..n].iter_mut().zip(&pivot_row_slice[col..n]) {
                *t -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Validates the shape of an `m × n` least-squares system and returns
/// `(m, n)`.
fn check_shape(a: &[Vec<f64>], b: &[f64]) -> Result<(usize, usize), CalError> {
    let m = a.len();
    if m != b.len() {
        return Err(CalError::ShapeMismatch {
            reason: format!("{m} matrix rows but {} right-hand-side entries", b.len()),
        });
    }
    if m == 0 {
        return Err(CalError::InsufficientProbes { kept: 0, needed: 1 });
    }
    let n = a[0].len();
    if a.iter().any(|row| row.len() != n) {
        return Err(CalError::ShapeMismatch {
            reason: "ragged matrix rows".to_string(),
        });
    }
    if m < n {
        return Err(CalError::InsufficientProbes { kept: m, needed: n });
    }
    Ok((m, n))
}

/// Forms the normal equations `(aᵀa, aᵀb)` of an `m × n` system.
fn normal_equations(a: &[Vec<f64>], b: &[f64], n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut ata = vec![vec![0.0; n]; n];
    let mut atb = vec![0.0; n];
    for (row, &bi) in a.iter().zip(b) {
        for i in 0..n {
            atb[i] += row[i] * bi;
            for j in 0..n {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    (ata, atb)
}

/// 1-norm condition number `κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁` of a square matrix,
/// computed by solving for the inverse column by column. Returns
/// `INFINITY` for singular (or numerically singular) matrices.
pub(crate) fn condition_1norm(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let col_sum = |m: &[Vec<f64>], j: usize| m.iter().map(|row| row[j].abs()).sum::<f64>();
    let norm_a = (0..n).map(|j| col_sum(a, j)).fold(0.0f64, f64::max);
    let mut norm_inv = 0.0f64;
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        match solve_square(a.to_vec(), e) {
            Ok(col) => norm_inv = norm_inv.max(col.iter().map(|v| v.abs()).sum()),
            Err(_) => return f64::INFINITY,
        }
    }
    norm_a * norm_inv
}

/// A diagnosed least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LsFit {
    /// The solution vector.
    pub x: Vec<f64>,
    /// 1-norm condition number of the normal matrix `aᵀa` (`INFINITY` if
    /// singular).
    pub condition: f64,
    /// Whether the Tikhonov-ridge fallback was used because the plain
    /// normal equations were singular or worse-conditioned than the limit.
    pub used_ridge: bool,
}

/// Solves `a · x ≈ b` in the least-squares sense with condition
/// diagnostics and a Tikhonov-ridge fallback.
///
/// If `κ₁(aᵀa)` exceeds `condition_limit` (or the normal equations are
/// outright singular), the system is re-solved with a scale-equivariant
/// Tikhonov ridge: each diagonal entry is inflated by `ridge_lambda`
/// relative to itself (`ata[i][i] *= 1 + λ`), so columns of wildly
/// different scales — this system mixes per-page and per-operator
/// coefficients spanning several orders of magnitude — are shrunk
/// proportionally rather than the small ones being crushed by a uniform
/// λ. A column that vanished entirely (all-zero after probe drops) gets
/// `λ × mean(diag)` instead, which pins its unidentifiable parameter to
/// zero in a bounded way; the caller's parameter floor then flags it as
/// clamped.
pub(crate) fn least_squares_diagnosed(
    a: &[Vec<f64>],
    b: &[f64],
    condition_limit: f64,
    ridge_lambda: f64,
) -> Result<LsFit, CalError> {
    let (_, n) = check_shape(a, b)?;
    let (ata, atb) = normal_equations(a, b, n);
    let condition = condition_1norm(&ata);
    if condition <= condition_limit {
        if let Ok(x) = solve_square(ata.clone(), atb.clone()) {
            return Ok(LsFit {
                x,
                condition,
                used_ridge: false,
            });
        }
    }
    let mean_diag = (0..n).map(|i| ata[i][i]).sum::<f64>() / n.max(1) as f64;
    if !(ridge_lambda > 0.0 && mean_diag > 0.0 && mean_diag.is_finite()) {
        return Err(CalError::SingularSystem);
    }
    let mut ridged = ata;
    for (i, row) in ridged.iter_mut().enumerate() {
        row[i] += ridge_lambda * if row[i] > 0.0 { row[i] } else { mean_diag };
    }
    let x = solve_square(ridged, atb)?;
    Ok(LsFit {
        x,
        condition,
        used_ridge: true,
    })
}

/// Root-mean-square residual of a candidate solution (used in tests and
/// calibration diagnostics).
pub(crate) fn rms_residual(a: &[Vec<f64>], b: &[f64], x: &[f64]) -> f64 {
    let m = a.len() as f64;
    let ss: f64 = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            let pred: f64 = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
            (pred - bi).powi(2)
        })
        .sum();
    (ss / m).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fit with no ridge to fall back on and no condition limit: the
    /// normal equations solved as they stand.
    fn fit(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, CalError> {
        least_squares_diagnosed(a, b, f64::INFINITY, 0.0).map(|fit| fit.x)
    }

    /// The normal equations of a well-shaped `a`, solved directly.
    fn plain(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let (ata, atb) = normal_equations(a, b, a[0].len());
        solve_square(ata, atb).unwrap()
    }

    #[test]
    fn solves_known_square_system() {
        // x + 2y = 5; 3x - y = 1  => x = 1, y = 2.
        let a = vec![vec![1.0, 2.0], vec![3.0, -1.0]];
        let b = vec![5.0, 1.0];
        let x = solve_square(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![2.0, 0.0]];
        let b = vec![3.0, 4.0];
        let x = solve_square(a, b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let b = vec![3.0, 6.0];
        assert_eq!(solve_square(a, b), Err(CalError::SingularSystem));
    }

    #[test]
    fn pivot_threshold_is_relative_to_matrix_scale() {
        // A perfectly well-conditioned system scaled down to ~1e-14: an
        // absolute 1e-12 threshold would call it singular, the relative
        // test must not.
        let s = 1e-14;
        let a = vec![vec![s, 2.0 * s], vec![3.0 * s, -s]];
        let b = vec![5.0 * s, s];
        let x = solve_square(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-9, "{x:?}");
        // And the same singular system stays singular at any scale.
        for s in [1e-14, 1.0, 1e14] {
            let a = vec![vec![s, 2.0 * s], vec![2.0 * s, 4.0 * s]];
            let b = vec![3.0 * s, 6.0 * s];
            assert_eq!(solve_square(a, b), Err(CalError::SingularSystem));
        }
    }

    #[test]
    fn shape_problems_are_errors_not_panics() {
        // solve_square: non-square.
        let e = solve_square(vec![vec![1.0, 2.0]], vec![1.0]).unwrap_err();
        assert!(matches!(e, CalError::ShapeMismatch { .. }));
        // The fit: empty.
        let e = fit(&[], &[]).unwrap_err();
        assert_eq!(e, CalError::InsufficientProbes { kept: 0, needed: 1 });
        // The fit: row-count mismatch.
        let e = fit(&[vec![1.0]], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(e, CalError::ShapeMismatch { .. }));
        // The fit: ragged.
        let e = fit(&[vec![1.0, 2.0], vec![1.0]], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(e, CalError::ShapeMismatch { .. }));
        // The fit: underdetermined.
        let e = fit(&[vec![1.0, 2.0]], &[1.0]).unwrap_err();
        assert_eq!(e, CalError::InsufficientProbes { kept: 1, needed: 2 });
    }

    #[test]
    fn all_zero_matrix_is_singular() {
        let a = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert_eq!(
            solve_square(a, vec![0.0, 0.0]),
            Err(CalError::SingularSystem)
        );
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // Overdetermined but consistent.
        let a = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let x_true = [3.0, -2.0];
        let b: Vec<f64> = a
            .iter()
            .map(|r| r[0] * x_true[0] + r[1] * x_true[1])
            .collect();
        let x = fit(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
        assert!(rms_residual(&a, &b, &x) < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_noisy_residual() {
        // y = 2t + 1 with noise; fit [t, 1] -> [slope, intercept].
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let noise = [0.05, -0.04, 0.03, -0.02, 0.04, -0.05];
        let a: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t, 1.0]).collect();
        let b: Vec<f64> = ts
            .iter()
            .zip(noise)
            .map(|(&t, n)| 2.0 * t + 1.0 + n)
            .collect();
        let x = fit(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 0.05, "slope {x:?}");
        assert!((x[1] - 1.0).abs() < 0.1, "intercept {x:?}");
    }

    #[test]
    fn condition_number_tracks_conditioning() {
        // Identity: κ = 1.
        let id = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!((condition_1norm(&id) - 1.0).abs() < 1e-12);
        // Diagonal [1, 1e-8]: κ ≈ 1e8.
        let skew = vec![vec![1.0, 0.0], vec![0.0, 1e-8]];
        let k = condition_1norm(&skew);
        assert!((k / 1e8 - 1.0).abs() < 1e-6, "κ = {k}");
        // Singular: κ = ∞.
        let sing = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(condition_1norm(&sing).is_infinite());
    }

    #[test]
    fn diagnosed_fit_matches_plain_fit_when_well_conditioned() {
        let a = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let b = vec![3.0, -2.0, 1.0, 4.0];
        let plain = plain(&a, &b);
        let fit = least_squares_diagnosed(&a, &b, 1e12, 1e-8).unwrap();
        assert!(!fit.used_ridge);
        assert!(fit.condition.is_finite() && fit.condition >= 1.0);
        for (p, d) in plain.iter().zip(&fit.x) {
            assert_eq!(
                p.to_bits(),
                d.to_bits(),
                "ridge-free path must be identical"
            );
        }
    }

    #[test]
    fn ridge_rescues_a_singular_system() {
        // Two identical columns: the normal equations are exactly
        // singular, plain least squares errors, the ridge path returns a
        // finite symmetric split.
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        let b = vec![2.0, 4.0, 6.0];
        assert_eq!(fit(&a, &b), Err(CalError::SingularSystem));
        let fit = least_squares_diagnosed(&a, &b, 1e12, 1e-8).unwrap();
        assert!(fit.used_ridge);
        assert!(fit.condition.is_infinite());
        assert!(fit.x.iter().all(|v| v.is_finite()));
        // The ridge solution splits the (true) coefficient sum of 2
        // symmetrically: x ≈ [1, 1].
        assert!((fit.x[0] - 1.0).abs() < 1e-3 && (fit.x[1] - 1.0).abs() < 1e-3);
        let rms = rms_residual(&a, &b, &fit.x);
        assert!(rms < 1e-3, "ridge fit should still fit well: rms {rms}");
    }

    #[test]
    fn tight_condition_limit_forces_the_ridge_path() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let b = vec![1.0, 2.0, 3.0];
        let fit = least_squares_diagnosed(&a, &b, 0.5, 1e-10).unwrap();
        assert!(fit.used_ridge);
        // λ is tiny relative to the diagonal, so the answer is close to
        // the plain one.
        let plain = plain(&a, &b);
        for (p, r) in plain.iter().zip(&fit.x) {
            assert!((p - r).abs() < 1e-6);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip_random_well_conditioned(seed in 0u64..1000) {
            // Build a diagonally dominant 4x4 system (guaranteed solvable)
            // from a cheap deterministic generator.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 100.0 - 5.0
            };
            let n = 4;
            let mut a = vec![vec![0.0; n]; n];
            for (i, row) in a.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = if i == j { 50.0 + next().abs() } else { next() };
                }
            }
            let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
            let b: Vec<f64> = a
                .iter()
                .map(|row| row.iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
                .collect();
            let x = solve_square(a, b).unwrap();
            for (got, want) in x.iter().zip(&x_true) {
                proptest::prop_assert!((got - want).abs() < 1e-6);
            }
        }
    }
}
