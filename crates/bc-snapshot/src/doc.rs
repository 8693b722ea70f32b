//! The framed snapshot document: header, named sections, checksummed
//! footer.

use crate::error::SnapshotError;
use crate::value::Value;
use std::io::{Read, Write};

/// The format name every document's header must carry.
pub const FORMAT_NAME: &str = "bc-snapshot";

/// The newest document version this crate writes and understands. Older
/// readers refuse newer documents. The version moves when the layout or
/// the set of sections a writer emits changes; the domain layer reads
/// [`Snapshot::version`] and decides which older documents it still
/// reads. Version 2 added a section of the conditions a session's kept
/// circuits came from; version 3 removed it again, and sessions resume
/// from version 3 only.
pub const FORMAT_VERSION: u32 = 3;

/// FNV-1a 64-bit, the checksum of the footer (and the fingerprint hash the
/// domain layer uses). Small, dependency-free, and plenty for detecting
/// torn writes — snapshots are not an integrity boundary against attackers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn header_value(fingerprint: &str, version: u32) -> Value {
    Value::obj(vec![
        ("format", Value::Str(FORMAT_NAME.into())),
        ("version", Value::Int(version as i128)),
        ("fingerprint", Value::Str(fingerprint.into())),
    ])
}

fn footer_value(sections: usize, checksum: u64) -> Value {
    Value::obj(vec![
        ("sections", Value::Int(sections as i128)),
        ("checksum", Value::Str(format!("{checksum:016x}"))),
    ])
}

/// Streams one snapshot document to a writer, hashing as it goes.
///
/// Mirrors `bc-obs`'s `JsonLinesSink`: one JSON object per line, written
/// eagerly. The footer — and with it a parseable document — only exists
/// once [`SnapshotWriter::finish`] runs; a crash mid-write therefore leaves
/// a document that [`Snapshot::parse`] rejects instead of half-resumes.
pub struct SnapshotWriter<W: Write> {
    inner: W,
    hash: u64,
    bytes: usize,
    sections: usize,
}

impl<W: Write> SnapshotWriter<W> {
    /// Starts a document by writing its header line.
    pub fn new(inner: W, fingerprint: &str) -> Result<SnapshotWriter<W>, SnapshotError> {
        SnapshotWriter::with_version(inner, fingerprint, FORMAT_VERSION)
    }

    /// [`SnapshotWriter::new`] with an older header `version`, for
    /// re-serializing an older document as it was.
    fn with_version(
        inner: W,
        fingerprint: &str,
        version: u32,
    ) -> Result<SnapshotWriter<W>, SnapshotError> {
        let mut w = SnapshotWriter {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
            sections: 0,
        };
        w.write_line(&header_value(fingerprint, version).to_json())?;
        Ok(w)
    }

    fn write_line(&mut self, line: &str) -> Result<(), SnapshotError> {
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")?;
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += line.len() + 1;
        Ok(())
    }

    /// Appends one named section.
    pub fn section(&mut self, name: &str, data: Value) -> Result<(), SnapshotError> {
        let line = Value::obj(vec![("section", Value::Str(name.into())), ("data", data)]);
        self.write_line(&line.to_json())?;
        self.sections += 1;
        Ok(())
    }

    /// Writes the footer, flushes, and returns the total bytes written.
    pub fn finish(mut self) -> Result<usize, SnapshotError> {
        let footer = footer_value(self.sections, self.hash).to_json();
        self.inner.write_all(footer.as_bytes())?;
        self.inner.write_all(b"\n")?;
        self.inner.flush()?;
        Ok(self.bytes + footer.len() + 1)
    }
}

/// A parsed snapshot document: the header fingerprint plus its sections,
/// in document order.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    fingerprint: String,
    version: u32,
    sections: Vec<(String, Value)>,
}

impl Snapshot {
    /// Builds a document of the current [`FORMAT_VERSION`] in memory (the
    /// write-side counterpart used by re-serialization tests and by
    /// [`Snapshot::write_to`]).
    pub fn new(fingerprint: String, sections: Vec<(String, Value)>) -> Snapshot {
        Snapshot {
            fingerprint,
            version: FORMAT_VERSION,
            sections,
        }
    }

    /// The header's format version: [`FORMAT_VERSION`] or older.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The header's run fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// All sections, in document order.
    pub fn sections(&self) -> &[(String, Value)] {
        &self.sections
    }

    /// The named section's payload.
    pub fn section(&self, name: &str) -> Result<&Value, SnapshotError> {
        self.sections
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }

    /// Reads and validates one complete document: header, every section,
    /// and a footer whose section count and checksum match the bytes read.
    /// Bytes that are not UTF-8 are [`SnapshotError::Malformed`] at the
    /// line of the first bad byte.
    pub fn parse(mut reader: impl Read) -> Result<Snapshot, SnapshotError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let text = String::from_utf8(bytes).map_err(|e| {
            let bad = e.utf8_error().valid_up_to();
            SnapshotError::Malformed {
                line: 1 + e.as_bytes()[..bad].iter().filter(|&&b| b == b'\n').count(),
                reason: format!("invalid UTF-8 at byte {bad}"),
            }
        })?;

        let mut fingerprint: Option<String> = None;
        let mut version = FORMAT_VERSION;
        let mut sections: Vec<(String, Value)> = Vec::new();
        let mut footer: Option<(usize, String, u64)> = None; // declared count, checksum, hash-so-far
        let mut hash = 0xcbf2_9ce4_8422_2325u64;

        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let malformed = |reason: String| SnapshotError::Malformed {
                line: line_no,
                reason,
            };
            if footer.is_some() {
                return Err(malformed("content after the footer".into()));
            }
            let value = Value::parse(line).map_err(malformed)?;
            if line_no == 1 {
                let format = value
                    .get("format")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("header lacks a format name".into()))?;
                if format != FORMAT_NAME {
                    return Err(SnapshotError::UnsupportedFormat(format.to_string()));
                }
                let declared: usize = value
                    .field("version")
                    .map_err(|_| malformed("header lacks a version".into()))?;
                version = u32::try_from(declared).unwrap_or(u32::MAX);
                if version > FORMAT_VERSION {
                    return Err(SnapshotError::UnsupportedVersion(version));
                }
                let fp = value
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("header lacks a fingerprint".into()))?;
                fingerprint = Some(fp.to_string());
            } else if let Some(name) = value.get("section").and_then(Value::as_str) {
                let name = name.to_string();
                // Move the payload out: a checkpoint's sections run to
                // megabytes, and a copy would double the parse.
                let data = match value {
                    Value::Map(entries) => entries
                        .into_iter()
                        .find_map(|(k, v)| (k == "data").then_some(v)),
                    _ => None,
                }
                .ok_or_else(|| malformed("section line lacks data".into()))?;
                sections.push((name, data));
            } else if let Ok(declared) = value.field::<usize>("sections") {
                let checksum = value
                    .get("checksum")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("footer lacks a checksum".into()))?;
                footer = Some((declared, checksum.to_string(), hash));
                continue; // the footer itself is not hashed
            } else {
                return Err(malformed("neither section nor footer".into()));
            }
            for &b in line.as_bytes().iter().chain(b"\n") {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        let fingerprint = fingerprint.ok_or(SnapshotError::Malformed {
            line: 1,
            reason: "empty document".into(),
        })?;
        let (declared, checksum, hashed) = footer.ok_or(SnapshotError::Malformed {
            line: text.lines().count().max(1),
            reason: "no footer — torn write?".into(),
        })?;
        if declared != sections.len() {
            return Err(SnapshotError::SectionCountMismatch {
                declared,
                actual: sections.len(),
            });
        }
        let actual = format!("{hashed:016x}");
        if checksum != actual {
            return Err(SnapshotError::ChecksumMismatch {
                declared: checksum,
                actual,
            });
        }
        Ok(Snapshot {
            fingerprint,
            version,
            sections,
        })
    }

    /// Re-serializes the document, at its own version. For a document
    /// produced by [`SnapshotWriter`], the output is byte-identical to the
    /// original (pinned by test) — parsing is lossless and serialization
    /// canonical.
    pub fn write_to(&self, out: impl Write) -> Result<usize, SnapshotError> {
        let mut w = SnapshotWriter::with_version(out, &self.fingerprint, self.version)?;
        for (name, data) in &self.sections {
            w.section(name, data.clone())?;
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = SnapshotWriter::new(&mut buf, "00deadbeef00cafe").unwrap();
        w.section(
            "config",
            Value::obj(vec![
                ("budget", Value::Int(20)),
                ("alpha", Value::Float(0.01)),
            ]),
        )
        .unwrap();
        w.section(
            "pending",
            Value::List(vec![Value::obj(vec![("attempts", Value::Int(1))])]),
        )
        .unwrap();
        w.finish().unwrap();
        buf
    }

    #[test]
    fn write_parse_round_trip() {
        let bytes = sample_bytes();
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        assert_eq!(snap.fingerprint(), "00deadbeef00cafe");
        assert_eq!(snap.sections().len(), 2);
        assert_eq!(
            snap.section("config")
                .unwrap()
                .field::<usize>("budget")
                .ok(),
            Some(20)
        );
        assert!(matches!(
            snap.section("nope"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let bytes = sample_bytes();
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        let mut again = Vec::new();
        let n = snap.write_to(&mut again).unwrap();
        assert_eq!(n, again.len());
        assert_eq!(again, bytes);
    }

    #[test]
    fn older_versions_parse_and_keep_their_version() {
        let current = String::from_utf8(sample_bytes()).unwrap();
        let header = format!("\"version\":{FORMAT_VERSION}");
        assert!(current.contains(&header), "{current}");
        // Re-frame the same sections as a version-1 document.
        let snap = Snapshot::parse(current.as_bytes()).unwrap();
        assert_eq!(snap.version(), FORMAT_VERSION);
        let mut old = Vec::new();
        Snapshot {
            version: 1,
            ..snap.clone()
        }
        .write_to(&mut old)
        .unwrap();
        let text = String::from_utf8(old.clone()).unwrap();
        assert!(text.starts_with(&current[..current.find(&header).unwrap()]));
        assert!(text.contains("\"version\":1,"), "{text}");
        let parsed = Snapshot::parse(&old[..]).unwrap();
        assert_eq!(parsed.version(), 1);
        assert_eq!(parsed.sections(), snap.sections());
        let mut again = Vec::new();
        parsed.write_to(&mut again).unwrap();
        assert_eq!(again, old);
    }

    #[test]
    fn torn_writes_are_rejected() {
        let bytes = sample_bytes();
        // Missing footer (the crash-mid-write shape).
        let cut = bytes.len() - 2;
        assert!(matches!(
            Snapshot::parse(&bytes[..cut]),
            Err(SnapshotError::Malformed { .. })
        ));
        // A flipped byte inside a section breaks the checksum (if it even
        // parses).
        let mut corrupt = bytes.clone();
        let i = corrupt.iter().position(|&b| b == b'2').unwrap();
        corrupt[i] = b'3';
        assert!(Snapshot::parse(&corrupt[..]).is_err());
    }

    #[test]
    fn foreign_and_future_documents_are_refused() {
        let other = b"{\"format\":\"other\",\"version\":1,\"fingerprint\":\"x\"}\n";
        assert!(matches!(
            Snapshot::parse(&other[..]),
            Err(SnapshotError::UnsupportedFormat(_))
        ));
        let future = format!(
            "{{\"format\":\"bc-snapshot\",\"version\":{},\"fingerprint\":\"x\"}}\n",
            FORMAT_VERSION + 1
        );
        assert!(matches!(
            Snapshot::parse(future.as_bytes()),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn section_count_must_match() {
        let bytes = sample_bytes();
        let text = String::from_utf8(bytes).unwrap();
        // Drop one section line but keep the (now stale) footer.
        let lines: Vec<&str> = text.lines().collect();
        let tampered = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        // Either the checksum or the count catches it — both are wrong.
        assert!(Snapshot::parse(tampered.as_bytes()).is_err());
    }

    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        let header = header_value("x", FORMAT_VERSION).to_json();
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let doc = format!("{header}\n{{\"section\":\"s\",\"data\":{deep}}}\n");
        assert!(matches!(
            Snapshot::parse(doc.as_bytes()),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn non_utf8_bytes_are_malformed_at_their_line() {
        let mut doc = sample_bytes();
        let fp = doc.windows(4).position(|w| w == b"dead").unwrap();
        doc[fp] = 0xff;
        match Snapshot::parse(&doc[..]) {
            Err(SnapshotError::Malformed { line: 1, reason }) => {
                assert!(reason.contains("UTF-8"), "{reason}")
            }
            other => panic!("wrong result: {other:?}"),
        }
        // On a later line, the line number follows the bad byte.
        let mut doc = sample_bytes();
        let budget = doc.windows(6).position(|w| w == b"budget").unwrap();
        doc[budget] = 0xc3;
        assert!(matches!(
            Snapshot::parse(&doc[..]),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
