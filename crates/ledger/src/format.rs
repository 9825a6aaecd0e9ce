//! The on-disk format version of the WAL and checkpoint files, and the
//! typed refusal of every other.
//!
//! Both files open with an 8-byte magic and the format version (a
//! little-endian `u32`). Format 2, the only one written, gives every record
//! one [`checksum64`](cc_primitives::checksum::checksum64) over plain
//! block encodings. Format 1 had no header, and nested an FNV-1a checksum
//! per block inside an FNV-1a checksum per record. A reader never guesses
//! at a file: one that does not open with the current header is refused
//! with a [`VersionError`] — never scanned as torn, never truncated.

use std::fmt;
use std::io;

/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// A WAL or checkpoint file that does not open with the current format's
/// header. I/O-level readers ([`crate::wal::scan`],
/// [`crate::wal::Wal::open_append`], [`crate::load_latest`]) return it
/// inside an [`io::ErrorKind::InvalidData`] error; see
/// [`VersionError::in_io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionError {
    /// Which kind of file was refused: `"write-ahead log"` or
    /// `"checkpoint"`.
    pub file: &'static str,
    /// The version its header names, or `None` when it has no header of
    /// its kind at all (a format-1 file, or not a ledger file).
    pub found: Option<u32>,
}

impl VersionError {
    /// Checks that `bytes` opens with `magic` and [`FORMAT_VERSION`], and
    /// returns what follows.
    pub(crate) fn strip<'a>(
        file: &'static str,
        magic: &[u8; 8],
        bytes: &'a [u8],
    ) -> Result<&'a [u8], VersionError> {
        let header = bytes
            .strip_prefix(magic)
            .and_then(|rest| rest.split_first_chunk());
        let found = header.map(|(version, _)| u32::from_le_bytes(*version));
        match header {
            Some((_, rest)) if found == Some(FORMAT_VERSION) => Ok(rest),
            _ => Err(VersionError { file, found }),
        }
    }

    /// The version error `e` carries, if it is one.
    pub fn in_io(e: &io::Error) -> Option<&VersionError> {
        e.get_ref()?.downcast_ref()
    }
}

impl fmt::Display for VersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let found = self
            .found
            .map_or("no format header".into(), |v| format!("version {v}"));
        let file = self.file;
        write!(
            f,
            "{file} is not in format version {FORMAT_VERSION} (found {found})"
        )
    }
}

impl std::error::Error for VersionError {}

impl From<VersionError> for io::Error {
    fn from(e: VersionError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}
