//! Matrix file I/O: CSV for interoperability and a simple binary format
//! for round-tripping large matrices without parsing cost.
//!
//! The binary format (`.atm`) is: magic `b"ATAM"`, a format version
//! byte, an element-kind byte (`4`/`8` = f32/f64 width), two
//! little-endian `u64` dimensions, then `rows * cols` little-endian
//! elements in row-major order.

use crate::{Matrix, Scalar};
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"ATAM";
const VERSION: u8 = 1;

/// Errors from matrix readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Format(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Write a matrix as CSV (one row per line, `,` separator, full
/// precision round-trippable floats).
pub fn write_csv<T: Scalar>(m: &Matrix<T>, w: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    for i in 0..m.rows() {
        let mut first = true;
        for v in m.row(i) {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            // `{:?}`-style shortest round-trip via Display on f64.
            write!(w, "{}", v.to_f64())?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a CSV matrix (rectangular; blank lines ignored).
///
/// # Errors
/// [`IoError::Format`] on ragged rows, empty input or unparsable cells.
pub fn read_csv<T: Scalar>(r: impl Read) -> Result<Matrix<T>, IoError> {
    let reader = io::BufReader::new(r);
    let mut data: Vec<T> = Vec::new();
    let mut cols: Option<usize> = None;
    let mut rows = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut count = 0usize;
        for cell in trimmed.split(',') {
            let v: f64 = cell.trim().parse().map_err(|_| {
                IoError::Format(format!("line {}: bad number '{cell}'", lineno + 1))
            })?;
            data.push(T::from_f64(v));
            count += 1;
        }
        match cols {
            None => cols = Some(count),
            Some(c) if c != count => {
                return Err(IoError::Format(format!(
                    "line {}: expected {c} columns, got {count}",
                    lineno + 1
                )))
            }
            _ => {}
        }
        rows += 1;
    }
    let cols = cols.ok_or_else(|| IoError::Format("empty matrix".into()))?;
    Ok(Matrix::from_vec(data, rows, cols))
}

/// Write the binary `.atm` format.
pub(crate) fn write_binary<T: Scalar>(m: &Matrix<T>, w: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION, std::mem::size_of::<T>() as u8])?;
    w.write_all(&(m.rows() as u64).to_le_bytes())?;
    w.write_all(&(m.cols() as u64).to_le_bytes())?;
    // Elements as f64 bits when T is f64, else f32 bits.
    if std::mem::size_of::<T>() == 4 {
        for v in m.as_slice() {
            w.write_all(&(v.to_f64() as f32).to_le_bytes())?;
        }
    } else {
        for v in m.as_slice() {
            w.write_all(&v.to_f64().to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Read the binary `.atm` format.
///
/// # Errors
/// [`IoError::Format`] on bad magic/version/width or truncation.
pub(crate) fn read_binary<T: Scalar>(mut r: impl Read) -> Result<Matrix<T>, IoError> {
    let mut head = [0u8; 6];
    r.read_exact(&mut head)?;
    if &head[..4] != MAGIC {
        return Err(IoError::Format("bad magic (not an .atm file)".into()));
    }
    if head[4] != VERSION {
        return Err(IoError::Format(format!("unsupported version {}", head[4])));
    }
    let width = head[5] as usize;
    if width != std::mem::size_of::<T>() {
        return Err(IoError::Format(format!(
            "element width {width} does not match requested scalar ({} bytes)",
            std::mem::size_of::<T>()
        )));
    }
    let mut dims = [0u8; 16];
    r.read_exact(&mut dims)?;
    let rows = u64::from_le_bytes(dims[..8].try_into().expect("8 bytes")) as usize;
    let cols = u64::from_le_bytes(dims[8..].try_into().expect("8 bytes")) as usize;
    let count = rows
        .checked_mul(cols)
        .ok_or_else(|| IoError::Format("dimension overflow".into()))?;
    let mut data = Vec::with_capacity(count);
    if width == 4 {
        let mut buf = [0u8; 4];
        for _ in 0..count {
            r.read_exact(&mut buf)?;
            data.push(T::from_f64(f32::from_le_bytes(buf) as f64));
        }
    } else {
        let mut buf = [0u8; 8];
        for _ in 0..count {
            r.read_exact(&mut buf)?;
            data.push(T::from_f64(f64::from_le_bytes(buf)));
        }
    }
    Ok(Matrix::from_vec(data, rows, cols))
}

/// Load a matrix from a path, selecting the format by extension
/// (`.csv` vs anything else = binary).
pub fn load<T: Scalar>(path: impl AsRef<Path>) -> Result<Matrix<T>, IoError> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        read_csv(f)
    } else {
        read_binary(f)
    }
}

/// Save a matrix to a path, selecting the format by extension.
pub fn save<T: Scalar>(m: &Matrix<T>, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    let f = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        write_csv(m, f)
    } else {
        write_binary(m, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn csv_roundtrip_f64() {
        let m = gen::standard::<f64>(1, 7, 5);
        let mut buf = Vec::new();
        write_csv(&m, &mut buf).expect("write");
        let back = read_csv::<f64>(&buf[..]).expect("read");
        assert_eq!(
            m.max_abs_diff(&back),
            0.0,
            "CSV must round-trip f64 exactly"
        );
    }

    #[test]
    fn binary_roundtrip_both_precisions() {
        let m64 = gen::standard::<f64>(2, 9, 4);
        let mut buf = Vec::new();
        write_binary(&m64, &mut buf).expect("write");
        let back = read_binary::<f64>(&buf[..]).expect("read");
        assert_eq!(m64.max_abs_diff(&back), 0.0);

        let m32 = gen::standard::<f32>(3, 4, 9);
        let mut buf = Vec::new();
        write_binary(&m32, &mut buf).expect("write");
        let back = read_binary::<f32>(&buf[..]).expect("read");
        assert_eq!(m32.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let bad = "1,2,3\n4,5\n";
        let err = read_csv::<f64>(bad.as_bytes()).expect_err("ragged");
        assert!(err.to_string().contains("expected 3 columns"));
    }

    #[test]
    fn csv_rejects_garbage_cells() {
        let bad = "1,2\n3,abc\n";
        assert!(read_csv::<f64>(bad.as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_wrong_magic_and_width() {
        let m = gen::standard::<f64>(4, 2, 2);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        // Wrong scalar width requested.
        assert!(read_binary::<f32>(&buf[..]).is_err());
        // Corrupt magic.
        buf[0] = b'X';
        assert!(read_binary::<f64>(&buf[..]).is_err());
    }

    #[test]
    fn truncated_binary_is_an_error() {
        let m = gen::standard::<f64>(5, 3, 3);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(read_binary::<f64>(&buf[..]).is_err());
    }

    #[test]
    fn path_based_save_load_by_extension() {
        let dir = std::env::temp_dir().join("ata_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let m = gen::standard::<f64>(6, 5, 3);

        let csv = dir.join("m.csv");
        save(&m, &csv).expect("save csv");
        assert_eq!(load::<f64>(&csv).expect("load csv").max_abs_diff(&m), 0.0);

        let bin = dir.join("m.atm");
        save(&m, &bin).expect("save bin");
        assert_eq!(load::<f64>(&bin).expect("load bin").max_abs_diff(&m), 0.0);
        // Binary is smaller than CSV for the same data.
        let csv_len = std::fs::metadata(&csv).expect("meta").len();
        let bin_len = std::fs::metadata(&bin).expect("meta").len();
        assert!(bin_len < csv_len);
    }

    #[test]
    fn empty_csv_is_an_error() {
        assert!(read_csv::<f64>(&b""[..]).is_err());
        assert!(read_csv::<f64>(&b"\n\n"[..]).is_err());
    }
}
