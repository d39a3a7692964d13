//! The framed wire format shared by the socket-backed transports.
//!
//! [`TcpTransport`](super::TcpTransport) (blocking sockets, each receiver
//! reading its own connection) and
//! [`ReactorTransport`](super::ReactorTransport) (nonblocking,
//! event-driven) speak the identical byte stream — the conformance suites
//! assert both backends are interchangeable — so the encoding lives here
//! once. Every frame is length-prefixed and little-endian:
//!
//! ```text
//! +--------+----------+-----------+------------+------------+----------+---------+
//! | opcode | link id  | slice idx | stripe id  | repair id  | len: u32 | payload |
//! | u8     | u64      | u64       | u64        | u64        |          | [u8]    |
//! +--------+----------+-----------+------------+------------+----------+---------+
//! ```
//!
//! Opcodes: `HELLO` (first frame on a connection, announcing the `(src,
//! dst)` node pair in the link/index fields and the connection's
//! generation in the stripe field), `DATA` (one
//! [`SliceMsg`](super::SliceMsg): slice index, stripe and repair-job ids,
//! payload), `EOS` (the sending half of a link was dropped).
//!
//! Bytes off a socket are untrusted: both decoders ([`FrameReader`] for
//! blocking reads, [`FrameDecoder`] for nonblocking ones) reject an unknown
//! opcode or a length above [`MAX_FRAME_LEN`] with an error before
//! allocating or waiting for the payload, and the caller discards the
//! connection — a garbled header fails the links riding that connection,
//! never the process.

use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// First frame on a connection: announces the `(src, dst)` node pair.
pub(super) const OP_HELLO: u8 = 1;
/// One slice message.
pub(super) const OP_DATA: u8 = 2;
/// The sending half of a link was dropped.
pub(super) const OP_EOS: u8 = 3;

/// Header: opcode + link id + slice index + stripe id + repair id + length.
pub(super) const HEADER_LEN: usize = 1 + 8 + 8 + 8 + 8 + 4;

/// The largest payload one frame may carry. A slice is at most a whole
/// block (`BlockPipeline`, unsliced conventional repair), and 64 MiB is the
/// largest block size the paper evaluates.
pub(super) const MAX_FRAME_LEN: usize = 64 << 20;

/// How many bytes a [`FrameReader`] asks the socket for at a time: enough
/// that a header and any stale frames ahead of it arrive in one `read`,
/// small enough that nearly all of a slice payload is read straight into
/// its own allocation instead of being copied out of the buffer.
const READ_BUF: usize = 4096;

pub(super) fn encode_header(
    opcode: u8,
    link: u64,
    index: u64,
    stripe: u64,
    repair: u64,
    len: u32,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = opcode;
    h[1..9].copy_from_slice(&link.to_le_bytes());
    h[9..17].copy_from_slice(&index.to_le_bytes());
    h[17..25].copy_from_slice(&stripe.to_le_bytes());
    h[25..33].copy_from_slice(&repair.to_le_bytes());
    h[33..37].copy_from_slice(&len.to_le_bytes());
    h
}

/// The length field for an outgoing payload, refusing one the peer's
/// decoder would reject.
pub(super) fn payload_len(payload: &[u8]) -> io::Result<u32> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "slice of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
                payload.len()
            ),
        ));
    }
    Ok(payload.len() as u32)
}

/// Writes one frame: header and payload leave in a single vectored write
/// when the stream accepts them whole, and the remainder is retried until
/// the frame is complete. Whenever a nonblocking stream refuses bytes
/// (`WouldBlock`), `make_room` runs before the next attempt — it is what
/// empties the far end, or waits for someone else to.
pub(super) fn write_frame<W: Write>(
    mut stream: W,
    header: &[u8; HEADER_LEN],
    payload: &[u8],
    mut make_room: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let total = HEADER_LEN + payload.len();
    let mut written = 0;
    while written < total {
        let result = if written < HEADER_LEN {
            stream.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            stream.write(&payload[written - HEADER_LEN..])
        };
        match result {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => make_room()?,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One decoded frame.
pub(super) struct Frame {
    pub(super) opcode: u8,
    pub(super) link: u64,
    pub(super) index: u64,
    pub(super) stripe: u64,
    pub(super) repair: u64,
    pub(super) payload: Vec<u8>,
}

/// Validates a header and returns the payload length it announces.
fn announced_len(header: &[u8; HEADER_LEN]) -> io::Result<usize> {
    let opcode = header[0];
    if !matches!(opcode, OP_HELLO | OP_DATA | OP_EOS) {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("unknown frame opcode {opcode}"),
        ));
    }
    let len = u32::from_le_bytes(header[33..37].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    Ok(len)
}

fn decode(header: &[u8; HEADER_LEN], payload: Vec<u8>) -> Frame {
    Frame {
        opcode: header[0],
        link: u64::from_le_bytes(header[1..9].try_into().unwrap()),
        index: u64::from_le_bytes(header[9..17].try_into().unwrap()),
        stripe: u64::from_le_bytes(header[17..25].try_into().unwrap()),
        repair: u64::from_le_bytes(header[25..33].try_into().unwrap()),
        payload,
    }
}

/// Buffered frame parser for blocking reads (the `TcpTransport` receive
/// path). The buffer belongs to the connection, not to a link: bytes read
/// ahead of one link's last frame are the next link's first. It also takes
/// whatever the connection's own sender moves into it ([`FrameReader::fill`])
/// when the socket is full, and grows to hold it.
pub(super) struct FrameReader {
    /// Zero-initialised once; [`READ_BUF`] bytes unless a `fill` grew it.
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[pos..filled]`.
    pos: usize,
    filled: usize,
}

impl FrameReader {
    pub(super) fn new() -> Self {
        FrameReader {
            buf: vec![0u8; READ_BUF],
            pos: 0,
            filled: 0,
        }
    }

    /// Blocks until one complete frame has been read from `src`, taking the
    /// buffered bytes first. The payload is allocated once, at its
    /// announced length, and the part not already buffered is read straight
    /// into it. End-of-stream — between frames or inside one — is
    /// `UnexpectedEof`; a bad header is `InvalidData`, after which the
    /// stream position is meaningless and the reader must be discarded.
    pub(super) fn read_frame<R: Read>(&mut self, mut src: R) -> io::Result<Frame> {
        while self.filled - self.pos < HEADER_LEN {
            self.compact();
            match src.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let header: [u8; HEADER_LEN] = self.buf[self.pos..self.pos + HEADER_LEN]
            .try_into()
            .unwrap();
        let len = announced_len(&header)?;
        self.pos += HEADER_LEN;
        let mut payload = Vec::with_capacity(len);
        let buffered = len.min(self.filled - self.pos);
        payload.extend_from_slice(&self.buf[self.pos..self.pos + buffered]);
        self.pos += buffered;
        if self.pos == self.filled {
            self.clear();
        }
        // Zero-filled so the rest can go in with one `read` once the frame is
        // complete in the socket — as it always is when the thread that sent
        // it reads it — instead of `read_to_end`'s growing probes.
        payload.resize(len, 0);
        src.read_exact(&mut payload[buffered..])?;
        Ok(decode(&header, payload))
    }

    /// Moves every byte `recv_now` can hand over without waiting into the
    /// buffer, doubling it as often as that takes, and returns how many it
    /// moved. `recv_now` must not block: it reports an empty source as
    /// `WouldBlock`, which ends the fill. End-of-stream is `UnexpectedEof`
    /// (what was moved before it stays buffered).
    pub(super) fn fill(
        &mut self,
        mut recv_now: impl FnMut(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        self.compact();
        let mut moved = 0;
        loop {
            if self.filled == self.buf.len() {
                let doubled = 2 * self.buf.len();
                self.buf.resize(doubled, 0);
            }
            match recv_now(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.filled += n;
                    moved += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
    }

    /// Empties the buffer; one that a `fill` grew is given back, so a
    /// pooled connection does not keep the largest backlog it ever held.
    fn clear(&mut self) {
        self.pos = 0;
        self.filled = 0;
        if self.buf.len() > READ_BUF {
            self.buf = vec![0u8; READ_BUF];
        }
    }
}

/// Incremental frame parser for nonblocking reads (the `ReactorTransport`
/// path): bytes go in whenever the socket is readable, complete frames come
/// out. Partial frames stay buffered across calls.
#[derive(Default)]
pub(super) struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so steady-state parsing
    /// does not memmove on every frame.
    start: usize,
}

impl FrameDecoder {
    /// Appends freshly-read bytes to the parse buffer.
    pub(super) fn extend(&mut self, bytes: &[u8]) {
        // Compact once the dead prefix dominates, bounding memory at ~2x
        // the largest in-flight frame.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, or `Ok(None)` until more bytes arrive.
    /// A bad header is `InvalidData` as soon as its 37 bytes are in — the
    /// decoder never waits for (or buffers towards) a length it would
    /// reject — and the connection must be discarded.
    pub(super) fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let pending = &self.buf[self.start..];
        if pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = pending[..HEADER_LEN].try_into().unwrap();
        let len = announced_len(&header)?;
        if pending.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = pending[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.start += HEADER_LEN + len;
        Ok(Some(decode(&header, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Seen = (u8, u64, u64, u64, u64, Vec<u8>);

    fn seen(f: Frame) -> Seen {
        (f.opcode, f.link, f.index, f.stripe, f.repair, f.payload)
    }

    fn frame_bytes(opcode: u8, link: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = encode_header(opcode, link, 1, 2, 3, payload.len() as u32).to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// A three-frame stream (one payload larger than the read buffer) and
    /// what decoding it must yield.
    fn sample_stream() -> (Vec<u8>, Vec<Seen>) {
        let big: Vec<u8> = (0..3 * READ_BUF + 5).map(|i| (i * 7) as u8).collect();
        let mut wire = frame_bytes(OP_HELLO, 4, b"");
        wire.extend(frame_bytes(OP_DATA, 7, &big));
        wire.extend(frame_bytes(OP_DATA, 7, b"abc"));
        wire.extend(frame_bytes(OP_EOS, 8, b""));
        let expected = vec![
            (OP_HELLO, 4, 1, 2, 3, Vec::new()),
            (OP_DATA, 7, 1, 2, 3, big),
            (OP_DATA, 7, 1, 2, 3, b"abc".to_vec()),
            (OP_EOS, 8, 1, 2, 3, Vec::new()),
        ];
        (wire, expected)
    }

    /// A `Read` that hands out at most `chunk` bytes per call.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Decodes `wire` with the blocking reader fed `chunk` bytes at a time,
    /// returning the frames and the error that ended the stream.
    fn read_all(wire: &[u8], chunk: usize) -> (Vec<Seen>, io::Error) {
        let mut src = Chunked { data: wire, chunk };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(&mut src) {
                Ok(f) => frames.push(seen(f)),
                Err(e) => return (frames, e),
            }
        }
    }

    /// Decodes `wire` with the incremental decoder fed `chunk` bytes at a
    /// time, returning the frames and the error, if any.
    fn decode_all(wire: &[u8], chunk: usize) -> (Vec<Seen>, Option<io::Error>) {
        let mut decoder = FrameDecoder::default();
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            decoder.extend(piece);
            loop {
                match decoder.next_frame() {
                    Ok(Some(f)) => frames.push(seen(f)),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e)),
                }
            }
        }
        (frames, None)
    }

    #[test]
    fn decoder_handles_split_and_coalesced_frames() {
        let (wire, expected) = sample_stream();
        for chunk in [1, 2, 36, 37, 38, 100, READ_BUF - 1, READ_BUF, wire.len()] {
            let (frames, end) = read_all(&wire, chunk);
            assert_eq!(frames, expected, "reader, chunk {chunk}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
            let (frames, err) = decode_all(&wire, chunk);
            assert_eq!(frames, expected, "decoder, chunk {chunk}");
            assert!(err.is_none());
        }
    }

    /// What a sender moves out of a full socket is read before the socket:
    /// the stream decodes the same wherever the backlog ends, even inside a
    /// header or a payload larger than the reader's own buffer.
    #[test]
    fn a_filled_backlog_is_read_before_the_source() {
        let (wire, expected) = sample_stream();
        for cut in [
            0,
            1,
            HEADER_LEN,
            100,
            READ_BUF + 1,
            wire.len() - 1,
            wire.len(),
        ] {
            let mut reader = FrameReader::new();
            let mut backlog = &wire[..cut];
            let moved = reader
                .fill(|buf| {
                    if backlog.is_empty() {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                    let n = buf.len().min(backlog.len()).min(1000);
                    buf[..n].copy_from_slice(&backlog[..n]);
                    backlog = &backlog[n..];
                    Ok(n)
                })
                .unwrap();
            assert_eq!(moved, cut);
            let mut src = Chunked {
                data: &wire[cut..],
                chunk: 64,
            };
            let mut frames = Vec::new();
            let end = loop {
                match reader.read_frame(&mut src) {
                    Ok(f) => frames.push(seen(f)),
                    Err(e) => break e,
                }
            };
            assert_eq!(frames, expected, "cut {cut}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
        }
        let mut reader = FrameReader::new();
        let eof = reader.fill(|_| Ok(0)).unwrap_err();
        assert_eq!(eof.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn decoder_roundtrips_metadata() {
        let mut wire = encode_header(OP_DATA, 11, 22, 33, 44, 2).to_vec();
        wire.extend_from_slice(b"xy");
        let expected = vec![(OP_DATA, 11, 22, 33, 44, b"xy".to_vec())];
        assert_eq!(read_all(&wire, wire.len()).0, expected);
        assert_eq!(decode_all(&wire, wire.len()).0, expected);
    }

    #[test]
    fn truncated_header_and_payload_never_yield_a_frame() {
        let wire = frame_bytes(OP_DATA, 7, &[9u8; 100]);
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 1,
            wire.len() - 1,
        ] {
            let (frames, end) = read_all(&wire[..cut], 16);
            assert!(frames.is_empty(), "reader conjured a frame at cut {cut}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
            let (frames, err) = decode_all(&wire[..cut], 16);
            assert!(frames.is_empty(), "decoder conjured a frame at cut {cut}");
            assert!(err.is_none(), "a short stream is not yet an error");
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_any_allocation() {
        for len in [u32::MAX, MAX_FRAME_LEN as u32 + 1] {
            let wire = encode_header(OP_DATA, 1, 0, 0, 0, len);
            let (frames, end) = read_all(&wire, wire.len());
            assert!(frames.is_empty());
            assert_eq!(end.kind(), ErrorKind::InvalidData);
            let (frames, err) = decode_all(&wire, 5);
            assert!(frames.is_empty());
            assert_eq!(err.unwrap().kind(), ErrorKind::InvalidData);
        }
        // The limit itself is legal: the decoder waits for the payload.
        let wire = encode_header(OP_DATA, 1, 0, 0, 0, MAX_FRAME_LEN as u32);
        assert!(decode_all(&wire, wire.len()).1.is_none());
        assert!(payload_len(&[0u8; 16]).is_ok());
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        for opcode in [0u8, 4, 255] {
            // A valid frame first: the error must not swallow it.
            let mut wire = frame_bytes(OP_DATA, 7, b"ok");
            wire.extend(frame_bytes(opcode, 7, b"payload"));
            let (frames, end) = read_all(&wire, 3);
            assert_eq!(frames.len(), 1, "opcode {opcode}");
            assert_eq!(end.kind(), ErrorKind::InvalidData);
            let (frames, err) = decode_all(&wire, 3);
            assert_eq!(frames.len(), 1, "opcode {opcode}");
            assert_eq!(err.unwrap().kind(), ErrorKind::InvalidData);
        }
    }

    #[test]
    fn write_frame_survives_short_writes() {
        /// Accepts at most `limit` bytes per call, vectored or not.
        struct Short {
            out: Vec<u8>,
            limit: usize,
            calls: usize,
        }
        impl Write for Short {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                let n = self.limit.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.calls += 1;
                let mut left = self.limit;
                for b in bufs {
                    let n = left.min(b.len());
                    self.out.extend_from_slice(&b[..n]);
                    left -= n;
                }
                Ok(self.limit - left)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..200u8).collect();
        let header = encode_header(OP_DATA, 11, 22, 33, 44, payload.len() as u32);
        let expected = [&header[..], &payload[..]].concat();
        for limit in [1, 10, HEADER_LEN, HEADER_LEN + 1, 64, 1 << 20] {
            let mut sink = Short {
                out: Vec::new(),
                limit,
                calls: 0,
            };
            write_frame(&mut sink, &header, &payload, || unreachable!("never full")).unwrap();
            assert_eq!(sink.out, expected, "limit {limit}");
            if limit >= expected.len() {
                assert_eq!(sink.calls, 1, "a frame the sink takes whole is one write");
            }
        }
    }
}
