//! Level-1 (vector) kernels: the `?axpy` family of the paper plus the
//! small helpers the examples need.
//!
//! All functions operate on contiguous slices — matrix rows in this
//! workspace are always contiguous, so the recursive algorithms express
//! their block sums as row-wise `axpy` calls, exactly like the paper's
//! use of BLAS `?axpy` for "sums between matrices of discordant size".

use ata_mat::Scalar;

/// `y += alpha * x` over the common prefix of `x` and `y`.
///
/// Operating on the *common prefix* (rather than requiring equal lengths)
/// is what implements the paper's virtual zero-padding: adding a block
/// whose last column was "peeled off" simply means the tail of `y`
/// receives `+ alpha * 0`, i.e. nothing.
///
/// `alpha = ±1` takes a multiplication-free path — Strassen's block
/// combinations only ever scale by `±1` or `±alpha`, so this both speeds
/// the hot path up and makes measured multiplication counts match the
/// paper's closed forms exactly (see `ata-core`'s `analysis` module).
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &mut y[..len]);
    if alpha == T::ONE {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += *xi;
        }
    } else if alpha == T::NEG_ONE {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi -= *xi;
        }
    } else {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Dot product over the common prefix.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    let len = x.len().min(y.len());
    let mut acc = T::ZERO;
    for (xi, yi) in x[..len].iter().zip(&y[..len]) {
        acc += *xi * *yi;
    }
    acc
}

/// Euclidean norm, accumulated in `f64` for robustness.
#[inline]
pub fn nrm2<T: Scalar>(x: &[T]) -> f64 {
    x.iter()
        .map(|v| {
            let f = v.to_f64();
            f * f
        })
        .sum::<f64>()
        .sqrt()
}

/// `y = x` over the common prefix; the tail of `y` is zero-filled.
///
/// This is the copy analogue of the padded [`axpy`]: used when a smaller
/// sub-block must be placed into a larger workspace slot.
#[inline]
pub fn copy_padded<T: Scalar>(x: &[T], y: &mut [T]) {
    let len = x.len().min(y.len());
    y[..len].copy_from_slice(&x[..len]);
    for t in &mut y[len..] {
        *t = T::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_equal_lengths() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [10.0f64, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpy_shorter_x_simulates_zero_padding() {
        let x = [1.0f64];
        let mut y = [10.0f64, 20.0];
        axpy(1.0, &x, &mut y);
        assert_eq!(y, [11.0, 20.0], "tail of y must be unchanged");
    }

    #[test]
    fn axpy_shorter_y_truncates() {
        let x = [1.0f64, 2.0];
        let mut y = [10.0f64];
        axpy(1.0, &x, &mut y);
        assert_eq!(y, [11.0]);
    }

    #[test]
    fn axpby_combines() {
        // `y = alpha x + beta y` needs no kernel of its own: scale y
        // first, then accumulate (paper §3.1).
        let x = [1.0f64, 1.0];
        let mut y = [2.0f64, 4.0];
        scal(0.5, &mut y);
        axpy(3.0, &x, &mut y);
        assert_eq!(y, [4.0, 5.0]);
    }

    #[test]
    fn scal_and_dot_and_nrm2() {
        let mut x = [3.0f32, 4.0];
        scal(2.0, &mut x);
        assert_eq!(x, [6.0, 8.0]);
        assert_eq!(dot(&x, &x), 100.0);
        assert!((nrm2(&x) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn dot_empty_is_zero() {
        let x: [f64; 0] = [];
        assert_eq!(dot(&x, &x), 0.0);
    }

    #[test]
    fn copy_padded_zero_fills_tail() {
        let x = [1.0f64, 2.0];
        let mut y = [9.0f64; 4];
        copy_padded(&x, &mut y);
        assert_eq!(y, [1.0, 2.0, 0.0, 0.0]);
    }
}
