//! The two block-level products every linear code here is made of, both one
//! call to the fused [`gf256::dot_prod`] kernel.

use gf256::Matrix;

use crate::{CodeError, Result};

/// `matrix · blocks`: one new block per matrix row, each the combination of
/// the equal-length `blocks` that the row's coefficients name.
pub(crate) fn combine(matrix: &Matrix, blocks: &[&[u8]]) -> Vec<Vec<u8>> {
    let len = blocks[0].len();
    let mut out: Vec<Vec<u8>> = (0..matrix.rows()).map(|_| vec![0u8; len]).collect();
    let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    gf256::dot_prod(matrix, blocks, &mut dsts, false);
    out
}

/// The parity blocks of a systematic `n x k` `generator`: its rows `k..n`
/// times `data`, after checking that `data` is `k` blocks of one length.
pub(crate) fn encode_parity(generator: &Matrix, data: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
    let k = generator.cols();
    if data.len() != k {
        return Err(CodeError::InvalidBlockSize {
            reason: format!("expected {k} data blocks, got {}", data.len()),
        });
    }
    if data.iter().any(|b| b.len() != data[0].len()) {
        return Err(CodeError::InvalidBlockSize {
            reason: "data blocks must all have the same length".to_string(),
        });
    }
    let parity_rows: Vec<usize> = (k..generator.rows()).collect();
    Ok(combine(&generator.select_rows(&parity_rows), data))
}

/// How the parity blocks were built before the fused kernel: one parity row
/// at a time, one [`gf256::mul_add_slice`] per coefficient. The reference the
/// codes' `encode_parity` tests compare against.
#[cfg(test)]
pub(crate) fn row_by_row_parity(generator: &Matrix, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    (generator.cols()..generator.rows())
        .map(|row| {
            let mut parity = vec![0u8; data[0].len()];
            for (j, block) in data.iter().enumerate() {
                gf256::mul_add_slice(generator.get(row, j), block, &mut parity);
            }
            parity
        })
        .collect()
}
