//! Parameter initialization (seeded, deterministic).

use crate::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Glorot/Xavier uniform: `U(−√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    uniform(rng, rows, cols, (6.0 / (rows + cols) as f32).sqrt())
}

/// Uniform in `[-limit, limit]`.
pub fn uniform(rng: &mut StdRng, rows: usize, cols: usize, limit: f32) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-limit..=limit))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = xavier_uniform(&mut rng, 10, 20);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(m.data().iter().all(|x| x.abs() <= limit));
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(m, xavier_uniform(&mut rng2, 10, 20));
    }
}
