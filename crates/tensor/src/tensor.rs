//! The owned dense tensor type.

use crate::{Shape, TensorError};
use std::fmt;

/// An owned, row-major dense tensor of `f32` values.
///
/// `Tensor` is deliberately minimal: the workspace needs deterministic
/// reference arithmetic (for validating simulator mappings and training small
/// networks), not a BLAS. The last dimension is contiguous.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), fuseconv_tensor::TensorError> {
/// use fuseconv_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3])?;
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.as_slice().len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] for a zero-sized dimension and
    /// [`TensorError::LengthMismatch`] when `data.len()` differs from the
    /// shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates an all-zero tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] for a zero-sized dimension.
    pub fn zeros(dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        let data = vec![0.0; shape.volume()];
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with a constant value.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] for a zero-sized dimension.
    pub fn full(dims: &[usize], value: f32) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        let data = vec![value; shape.volume()];
        Ok(Tensor { shape, data })
    }

    /// Creates the `n`×`n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn eye(n: usize) -> Self {
        assert!(n > 0, "identity matrix must have positive size");
        let mut t = Tensor::zeros(&[n, n]).expect("n > 0");
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in row-major
    /// order. Useful for constructing deterministic test fixtures.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] for a zero-sized dimension.
    pub fn from_fn<F>(dims: &[usize], mut f: F) -> Result<Self, TensorError>
    where
        F: FnMut(&[usize]) -> f32,
    {
        let shape = Shape::new(dims)?;
        let volume = shape.volume();
        let mut index = vec![0usize; dims.len()];
        let mut data = Vec::with_capacity(volume);
        for _ in 0..volume {
            data.push(f(&index));
            // Row-major increment: bump the last coordinate, carrying left.
            for axis in (0..dims.len()).rev() {
                index[axis] += 1;
                if index[axis] < dims[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The underlying storage, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying storage, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ, or
    /// [`TensorError::ZeroDim`] for an invalid target shape.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Element-wise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Returns a tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Largest absolute difference between two same-shaped tensors. Useful
    /// for numeric comparisons in tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(self.mismatch("max_abs_diff", other));
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    fn zip_with<F: FnMut(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        mut f: F,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(self.mismatch(op, other));
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    fn mismatch(&self, op: &'static str, other: &Tensor) -> TensorError {
        TensorError::ShapeMismatch {
            op,
            lhs: self.shape.dims().to_vec(),
            rhs: other.shape.dims().to_vec(),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(t.get(&[i, j]).unwrap(), expect);
            }
        }
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 10 + ix[1]) as f32).unwrap();
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 2]).unwrap();
        t.set(&[1, 0], 7.5).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap(), 7.5);
        assert!(t.set(&[2, 0], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data_checks_volume() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.sum(), 3.0);
        let c = Tensor::zeros(&[3]).unwrap();
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert_eq!(a.max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn scalar_tensor_works() {
        let t = Tensor::from_vec(vec![42.0], &[]).unwrap();
        assert_eq!(t.get(&[]).unwrap(), 42.0);
    }
}
