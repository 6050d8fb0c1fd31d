//! Durable file envelope: versioned, checksummed payloads written atomically
//! via temp-file + rename.
//!
//! Layout (one ASCII header line, then raw payload bytes):
//!
//! ```text
//! GLINTDUR <kind> v<version> len=<payload bytes> crc32=<8 hex digits>\n
//! <payload>
//! ```
//!
//! The writer streams the whole envelope to `<path>.glint-tmp`, fsyncs, and
//! renames over `<path>` — so a crash at any instant leaves either the old
//! file or the new file, never a torn hybrid (the rename is atomic on POSIX
//! filesystems). The reader verifies magic, kind, declared length, and
//! CRC-32 before handing the payload back; every way a file can be wrong
//! maps to a distinct [`DurableError`] variant, never a panic.

use crate::{check, injected_error, Action};
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

const MAGIC: &str = "GLINTDUR";
const TMP_SUFFIX: &str = ".glint-tmp";

/// Every way reading or writing an envelope can fail.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying filesystem error (including injected faults).
    Io(std::io::Error),
    /// The file does not start with a parseable envelope header.
    NotAnEnvelope(String),
    /// The envelope holds a different kind of payload.
    KindMismatch { expected: String, found: String },
    /// The format version is newer than this build understands.
    UnsupportedVersion { found: u32, max_supported: u32 },
    /// Fewer payload bytes on disk than the header declares (torn write).
    Truncated { expected: usize, actual: usize },
    /// Payload bytes do not match the recorded CRC-32.
    ChecksumMismatch,
    /// Structurally wrong in some other way (e.g. trailing bytes).
    Corrupt(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::NotAnEnvelope(why) => write!(f, "not a durable envelope: {why}"),
            DurableError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "envelope kind mismatch: expected `{expected}`, found `{found}`"
                )
            }
            DurableError::UnsupportedVersion {
                found,
                max_supported,
            } => write!(
                f,
                "envelope version {found} is newer than the supported maximum {max_supported}"
            ),
            DurableError::Truncated { expected, actual } => write!(
                f,
                "truncated payload: header declares {expected} bytes, file holds {actual}"
            ),
            DurableError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DurableError::Corrupt(why) => write!(f, "corrupt envelope: {why}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), bitwise — the payloads here are
/// small enough that a table buys nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// Write `payload` as a durable envelope at `path`, atomically, through
/// [`write_atomic`] (which documents the fail-point `site`).
pub fn write_durable(
    site: &str,
    path: impl AsRef<Path>,
    kind: &str,
    version: u32,
    payload: &[u8],
) -> Result<(), DurableError> {
    let path = path.as_ref();
    debug_assert!(
        !kind.contains(char::is_whitespace),
        "envelope kind must be a single token"
    );
    let header = format!(
        "{MAGIC} {kind} v{version} len={} crc32={:08x}\n",
        payload.len(),
        crc32(payload)
    );
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload);
    write_atomic(site, path, &bytes)
}

/// Write `bytes` to `path` atomically: stream them to `<path>.glint-tmp`,
/// fsync, and rename over `path`. `site` names the fail-point hit before
/// and during the write (`Action::Err` aborts before touching the
/// filesystem; `Action::ShortWrite(n)` writes `n` bytes of the temp file
/// and aborts before the rename — the destination survives untouched
/// either way).
pub fn write_atomic(site: &str, path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let fault = check(site);
    if fault == Some(Action::Err) {
        return Err(injected_error(site).into());
    }
    let tmp = tmp_path(path);
    let result = (|| -> Result<(), DurableError> {
        let mut file = File::create(&tmp)?;
        if let Some(Action::ShortWrite(n)) = fault {
            // simulated crash mid-write: the temp file is torn, the
            // destination is never touched
            file.write_all(&bytes[..n.min(bytes.len())])?;
            file.sync_all()?;
            return Err(injected_error(site).into());
        }
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() && fault.is_none() {
        // best-effort cleanup after a real IO failure; injected torn writes
        // deliberately leave their wreckage for inspection
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Read and verify a durable envelope. Returns `(version, payload)`; the
/// version is guaranteed `<= max_version`. Never panics on hostile input.
pub fn read_durable(
    path: impl AsRef<Path>,
    kind: &str,
    max_version: u32,
) -> Result<(u32, Vec<u8>), DurableError> {
    let bytes = fs::read(path.as_ref())?;
    parse_envelope(&bytes, kind, max_version)
}

/// Envelope verification on an in-memory byte string (the testable core of
/// [`read_durable`]).
pub fn parse_envelope(
    bytes: &[u8],
    kind: &str,
    max_version: u32,
) -> Result<(u32, Vec<u8>), DurableError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| DurableError::NotAnEnvelope("no header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| DurableError::NotAnEnvelope("header is not UTF-8".into()))?;
    let mut fields = header.split(' ');
    if fields.next() != Some(MAGIC) {
        return Err(DurableError::NotAnEnvelope("bad magic".into()));
    }
    let found_kind = fields
        .next()
        .ok_or_else(|| DurableError::NotAnEnvelope("missing kind".into()))?;
    if found_kind != kind {
        return Err(DurableError::KindMismatch {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    let version: u32 = fields
        .next()
        .and_then(|f| f.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DurableError::NotAnEnvelope("missing version".into()))?;
    if version > max_version {
        return Err(DurableError::UnsupportedVersion {
            found: version,
            max_supported: max_version,
        });
    }
    let len: usize = fields
        .next()
        .and_then(|f| f.strip_prefix("len="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DurableError::NotAnEnvelope("missing length".into()))?;
    let crc: u32 = fields
        .next()
        .and_then(|f| f.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| DurableError::NotAnEnvelope("missing checksum".into()))?;
    let payload = &bytes[newline + 1..];
    if payload.len() < len {
        return Err(DurableError::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    if payload.len() > len {
        return Err(DurableError::Corrupt(format!(
            "{} trailing bytes after declared payload",
            payload.len() - len
        )));
    }
    if crc32(payload) != crc {
        return Err(DurableError::ChecksumMismatch);
    }
    Ok((version, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScopedFail;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("glint_durable_tests").join(name);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip() {
        let path = tmp_dir("round_trip").join("f.bin");
        write_durable("tests.none", &path, "blob", 3, b"hello world").unwrap();
        let (v, payload) = read_durable(&path, "blob", 3).unwrap();
        assert_eq!(v, 3);
        assert_eq!(payload, b"hello world");
    }

    #[test]
    fn typed_rejections() {
        let path = tmp_dir("rejections").join("f.bin");
        write_durable("tests.none", &path, "blob", 1, b"payload-bytes").unwrap();
        let good = fs::read(&path).unwrap();

        // truncation: drop trailing payload bytes
        assert!(matches!(
            parse_envelope(&good[..good.len() - 4], "blob", 1),
            Err(DurableError::Truncated { .. })
        ));
        // corruption: flip a payload byte
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            parse_envelope(&flipped, "blob", 1),
            Err(DurableError::ChecksumMismatch)
        ));
        // trailing garbage
        let mut longer = good.clone();
        longer.extend_from_slice(b"xx");
        assert!(matches!(
            parse_envelope(&longer, "blob", 1),
            Err(DurableError::Corrupt(_))
        ));
        // wrong kind, future version, not an envelope at all
        assert!(matches!(
            parse_envelope(&good, "other", 1),
            Err(DurableError::KindMismatch { .. })
        ));
        assert!(matches!(
            parse_envelope(&good, "blob", 0),
            Err(DurableError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            parse_envelope(b"{\"json\": true}\n", "blob", 1),
            Err(DurableError::NotAnEnvelope(_))
        ));
        assert!(matches!(
            parse_envelope(b"\xff\xfe\x00garbage", "blob", 1),
            Err(DurableError::NotAnEnvelope(_))
        ));
    }

    #[test]
    fn injected_error_leaves_destination_untouched() {
        let path = tmp_dir("inject_err").join("f.bin");
        write_durable("tests.write", &path, "blob", 1, b"old").unwrap();
        let _guard = ScopedFail::new("tests.write", Action::Err, 1);
        let err = write_durable("tests.write", &path, "blob", 1, b"new").unwrap_err();
        assert!(matches!(err, DurableError::Io(_)));
        let (_, payload) = read_durable(&path, "blob", 1).unwrap();
        assert_eq!(payload, b"old", "failed write must not clobber the file");
    }

    #[test]
    fn torn_write_leaves_destination_untouched() {
        let path = tmp_dir("inject_short").join("f.bin");
        write_durable("tests.torn", &path, "blob", 1, b"old").unwrap();
        let _guard = ScopedFail::new("tests.torn", Action::ShortWrite(10), 1);
        assert!(write_durable("tests.torn", &path, "blob", 1, b"new-content").is_err());
        // the destination still holds the previous generation in full
        let (_, payload) = read_durable(&path, "blob", 1).unwrap();
        assert_eq!(payload, b"old");
        // and the torn temp file is rejected with a typed error
        let tmp = tmp_path(&path);
        let torn = fs::read(&tmp).expect("torn temp file left behind");
        assert!(parse_envelope(&torn, "blob", 1).is_err());
    }
}
