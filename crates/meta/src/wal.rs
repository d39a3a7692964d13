//! WAL record framing: length-prefixed, CRC-checked, torn-tail tolerant.
//!
//! Every durable metadata mutation is one framed record:
//!
//! ```text
//! +----------------+----------------+======================+
//! | payload length | CRC-32(payload)|  payload (tag+fields)|
//! |   u32 LE       |    u32 LE      |  `length` bytes      |
//! +----------------+----------------+======================+
//! ```
//!
//! The same framing discipline the TCP transport uses for wire frames and
//! the integrity layer uses for block trailers: a reader can always tell
//! a complete record from a torn one. [`decode_log`] walks a byte buffer
//! record by record and stops at the first frame whose length runs past the
//! end of the buffer or whose CRC does not match — the crash-truncated tail
//! of a write-ahead log. The torn tail is *dropped whole*: a record is
//! either applied in full or not at all, never partially.
//!
//! Payloads are a one-byte tag followed by little-endian fields; all
//! integers are fixed width, strings and vectors are length-prefixed. Every
//! record is idempotent and carries absolute values (a relocation stores
//! the block's new node, an object's removal names its stripes), so
//! replaying a record twice — possible when a crash lands between a
//! snapshot rename and the WAL truncation — converges to the same state.
//!
//! Format note: tags 1 to 5 are retired. Tags 3 and 5 framed `PutStripe`
//! and `Relocate` with a stripe epoch field, which the current records
//! (tags 8 and 9) no longer carry. Tags 1, 2 and 4 framed an object record
//! without its placements, its removal without its stripes', and the
//! removal of one stripe: an object and its stripes now appear in one
//! `PutObject` (tag 10) and vanish in one `DeleteObject` (tag 11). A
//! CRC-valid frame with a retired tag is a root of an old format, not a
//! torn tail: [`decode_log`] refuses it rather than truncating the log
//! there.

use std::path::Path;

use ecc::stripe::StripeId;
use simnet::NodeId;

use crate::{MetaError, RepairRecord, Result, StripeRecord};

/// Bytes of framing overhead per record (length prefix + CRC).
pub const FRAME_HEADER: usize = 8;

// CRC-32 (IEEE, reflected 0xEDB88320) over a const table — the same
// polynomial and table construction as `ecpipe`'s block checksums, so
// the two planes share one checksum dialect.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One metadata mutation (or, in a snapshot, one fact of the full state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Upsert a named object together with its stripes' placements.
    PutObject {
        /// The object's name.
        name: String,
        /// Original size in bytes.
        size: usize,
        /// The object's stripes, in offset order, with their placements.
        stripes: Vec<StripeRecord>,
    },
    /// Remove a named object and its stripes.
    DeleteObject {
        /// The object's name.
        name: String,
        /// The stripes the object named, removed with it.
        stripes: Vec<StripeId>,
    },
    /// Upsert a stripe with its full placement.
    PutStripe(StripeRecord),
    /// Move one block of a stripe.
    Relocate {
        /// The stripe whose block moved.
        stripe: StripeId,
        /// The block index that moved.
        index: usize,
        /// The node now holding the block.
        node: NodeId,
    },
    /// Upsert an in-flight repair directive.
    PutRepair(RepairRecord),
    /// Resolve (complete or cancel) an in-flight repair directive.
    ResolveRepair {
        /// The stripe whose repair resolved.
        stripe: StripeId,
        /// The block index whose repair resolved.
        index: usize,
    },
}

const TAG_PUT_REPAIR: u8 = 6;
const TAG_RESOLVE_REPAIR: u8 = 7;
const TAG_PUT_STRIPE: u8 = 8;
const TAG_RELOCATE: u8 = 9;
const TAG_PUT_OBJECT: u8 = 10;
const TAG_DELETE_OBJECT: u8 = 11;
/// `PutObject` without placements (1), `DeleteObject` without stripes (2),
/// `PutStripe` and `Relocate` with a stripe epoch (3, 5), and the
/// single-stripe removal `ForgetStripe` (4).
const RETIRED_TAGS: [u8; 5] = [1, 2, 3, 4, 5];

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_stripe(buf: &mut Vec<u8>, s: &StripeRecord) {
    put_u64(buf, s.id.0);
    put_u32(buf, s.locations.len() as u32);
    for &n in &s.locations {
        put_u64(buf, n as u64);
    }
}

/// A bounds-checked little-endian reader over a payload slice. Every
/// accessor returns `None` past the end, so a malformed payload decodes to
/// `None` rather than panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn stripe(&mut self) -> Option<StripeRecord> {
        Some(StripeRecord {
            id: StripeId(self.u64()?),
            locations: self.node_vec()?,
        })
    }

    fn node_vec(&mut self) -> Option<Vec<NodeId>> {
        let len = self.u32()? as usize;
        // A length prefix beyond the remaining payload is malformed; the
        // division bounds the pre-allocation against garbage prefixes.
        if len > self.remaining() / 8 {
            return None;
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.u64()? as NodeId);
        }
        Some(v)
    }

    fn stripe_vec(&mut self) -> Option<Vec<StripeId>> {
        let len = self.u32()? as usize;
        if len > self.remaining() / 8 {
            return None;
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(StripeId(self.u64()?));
        }
        Some(v)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl Record {
    /// Encodes the payload (tag + fields, without framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Record::PutObject {
                name,
                size,
                stripes,
            } => {
                buf.push(TAG_PUT_OBJECT);
                put_str(&mut buf, name);
                put_u64(&mut buf, *size as u64);
                put_u32(&mut buf, stripes.len() as u32);
                for s in stripes {
                    put_stripe(&mut buf, s);
                }
            }
            Record::DeleteObject { name, stripes } => {
                buf.push(TAG_DELETE_OBJECT);
                put_str(&mut buf, name);
                put_u32(&mut buf, stripes.len() as u32);
                for s in stripes {
                    put_u64(&mut buf, s.0);
                }
            }
            Record::PutStripe(s) => {
                buf.push(TAG_PUT_STRIPE);
                put_stripe(&mut buf, s);
            }
            Record::Relocate {
                stripe,
                index,
                node,
            } => {
                buf.push(TAG_RELOCATE);
                put_u64(&mut buf, stripe.0);
                put_u32(&mut buf, *index as u32);
                put_u64(&mut buf, *node as u64);
            }
            Record::PutRepair(r) => {
                buf.push(TAG_PUT_REPAIR);
                put_u64(&mut buf, r.stripe.0);
                put_u32(&mut buf, r.index as u32);
                put_u64(&mut buf, r.requestor as u64);
                buf.push(r.priority);
            }
            Record::ResolveRepair { stripe, index } => {
                buf.push(TAG_RESOLVE_REPAIR);
                put_u64(&mut buf, stripe.0);
                put_u32(&mut buf, *index as u32);
            }
        }
        buf
    }

    /// Decodes a payload. `None` means the payload is malformed — treated
    /// by log replay exactly like a CRC mismatch (the record is dropped
    /// and replay stops).
    pub fn decode_payload(payload: &[u8]) -> Option<Record> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_PUT_OBJECT => {
                let name = r.string()?;
                let size = r.u64()? as usize;
                let count = r.u32()? as usize;
                // Each stripe takes at least 12 bytes (id + location count);
                // the division bounds the pre-allocation against garbage.
                if count > r.remaining() / 12 {
                    return None;
                }
                let mut stripes = Vec::with_capacity(count);
                for _ in 0..count {
                    stripes.push(r.stripe()?);
                }
                Record::PutObject {
                    name,
                    size,
                    stripes,
                }
            }
            TAG_DELETE_OBJECT => Record::DeleteObject {
                name: r.string()?,
                stripes: r.stripe_vec()?,
            },
            TAG_PUT_STRIPE => Record::PutStripe(r.stripe()?),
            TAG_RELOCATE => Record::Relocate {
                stripe: StripeId(r.u64()?),
                index: r.u32()? as usize,
                node: r.u64()? as NodeId,
            },
            TAG_PUT_REPAIR => Record::PutRepair(RepairRecord {
                stripe: StripeId(r.u64()?),
                index: r.u32()? as usize,
                requestor: r.u64()? as NodeId,
                priority: r.u8()?,
            }),
            TAG_RESOLVE_REPAIR => Record::ResolveRepair {
                stripe: StripeId(r.u64()?),
                index: r.u32()? as usize,
            },
            _ => return None,
        };
        // Trailing garbage means the frame length lied about the payload.
        r.done().then_some(record)
    }

    /// Encodes the record as one framed WAL entry.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }
}

/// The result of replaying a log buffer.
#[derive(Debug)]
pub struct DecodedLog {
    /// Every fully-framed, CRC-valid record, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix; the file should be truncated here
    /// before appending, so new records never land behind a torn tail.
    pub valid_len: u64,
    /// Whether bytes past the valid prefix were dropped (a torn tail).
    pub dropped_tail: bool,
}

/// Replays a log buffer read from `path`: decodes records until the first
/// incomplete frame, CRC mismatch or malformed payload, and reports where
/// the valid prefix ends. A crash mid-append can only tear the *tail*, so
/// everything before the first bad frame is trustworthy and everything
/// after it is dropped. A CRC-valid frame with a retired tag is refused
/// with [`MetaError::Corrupt`] naming `path`.
pub fn decode_log(bytes: &[u8], path: &Path) -> Result<DecodedLog> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(DecodedLog {
                records,
                valid_len: pos as u64,
                dropped_tail: false,
            });
        }
        if remaining < FRAME_HEADER {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if remaining - FRAME_HEADER < len {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        if let Some(tag) = payload.first().filter(|t| RETIRED_TAGS.contains(t)) {
            return Err(MetaError::Corrupt {
                path: path.to_path_buf(),
                reason: format!(
                    "record {} at byte {pos} has retired tag {tag}: the root was \
                     written by an older metadata format",
                    records.len(),
                ),
            });
        }
        let Some(record) = Record::decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos += FRAME_HEADER + len;
    }
    Ok(DecodedLog {
        records,
        valid_len: pos as u64,
        dropped_tail: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8]) -> DecodedLog {
        decode_log(bytes, Path::new("wal.log")).unwrap()
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::PutObject {
                name: "/a/b".to_string(),
                size: 12345,
                stripes: vec![
                    StripeRecord {
                        id: StripeId(1),
                        locations: vec![0, 1, 2],
                    },
                    StripeRecord {
                        id: StripeId(2),
                        locations: vec![3, 4, 5],
                    },
                ],
            },
            Record::PutStripe(StripeRecord {
                id: StripeId(7),
                locations: vec![0, 1, 2, 3, 4, 5],
            }),
            Record::Relocate {
                stripe: StripeId(7),
                index: 2,
                node: 9,
            },
            Record::PutRepair(RepairRecord {
                stripe: StripeId(7),
                index: 2,
                requestor: 8,
                priority: 1,
            }),
            Record::ResolveRepair {
                stripe: StripeId(7),
                index: 2,
            },
            Record::DeleteObject {
                name: "/a/b".to_string(),
                stripes: vec![StripeId(1), StripeId(2)],
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode_frame());
        }
        let decoded = decode(&log);
        assert_eq!(decoded.records, records);
        assert_eq!(decoded.valid_len, log.len() as u64);
        assert!(!decoded.dropped_tail);
    }

    #[test]
    fn truncation_at_every_offset_yields_a_whole_record_prefix() {
        let records = sample_records();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            log.extend_from_slice(&r.encode_frame());
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let decoded = decode(&log[..cut]);
            // The valid prefix ends exactly at the last whole frame.
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.records.len(), expected, "cut at {cut}");
            assert_eq!(decoded.records[..], records[..expected]);
            assert_eq!(decoded.valid_len as usize, boundaries[expected]);
            assert_eq!(decoded.dropped_tail, cut != boundaries[expected]);
        }
    }

    #[test]
    fn a_corrupt_tail_byte_drops_the_record() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode_frame());
        }
        let last_frame = records.last().unwrap().encode_frame();
        let flip = log.len() - last_frame.len() + FRAME_HEADER; // first payload byte
        log[flip] ^= 0xFF;
        let decoded = decode(&log);
        assert_eq!(decoded.records[..], records[..records.len() - 1]);
        assert!(decoded.dropped_tail);
    }

    /// A zero-filled crash tail is torn; a CRC-valid frame with any retired
    /// tag (here followed by zeros) is refused, not dropped.
    #[test]
    fn a_zero_tail_is_torn_but_a_retired_tag_is_refused() {
        let mut log = sample_records()[0].encode_frame();
        let valid = log.len();
        log.extend_from_slice(&[0; 64]);
        let decoded = decode(&log);
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.valid_len as usize, valid);
        assert!(decoded.dropped_tail);

        for tag in RETIRED_TAGS {
            let payload = [&[tag][..], &[0; 28]].concat();
            log.truncate(valid);
            put_u32(&mut log, payload.len() as u32);
            put_u32(&mut log, crc32(&payload));
            log.extend_from_slice(&payload);
            match decode_log(&log, Path::new("wal.log")) {
                Err(MetaError::Corrupt { path, reason }) => {
                    assert_eq!(path, Path::new("wal.log"));
                    assert!(reason.contains(&format!("retired tag {tag}")), "{reason}");
                }
                other => panic!("tag {tag}: expected a corrupt-metadata error, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
