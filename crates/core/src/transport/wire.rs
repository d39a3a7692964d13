//! The framed wire format of [`TcpTransport`](super::TcpTransport).
//!
//! Every frame is length-prefixed and little-endian:
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
//! A link's frames travel a window at a time on TCP: [`write_frames`] puts
//! every frame a sender queued into one vectored write, and
//! [`FrameReader`] takes whatever the socket holds with one `read` into a
//! pooled buffer sized for a credit window of frames, handing each frame
//! complete in it out as a [`Bytes`] view of that buffer.
//!
//! Bytes off a socket are untrusted: [`FrameReader`] rejects an unknown
//! opcode or a length above [`MAX_FRAME_LEN`] with an error before
//! allocating or waiting for the payload, and the caller discards the
//! connection — a garbled header fails the links riding that connection,
//! never the process.

use std::io::{self, ErrorKind, IoSlice, Read, Write};

use bytes::Bytes;

use crate::buf::BufPool;

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

/// The smallest read a [`FrameReader`] makes: before it has seen a frame's
/// length it reads this much, enough for a header and any stale frames
/// ahead of it.
const READ_BUF: usize = 4096;

/// The largest read buffer a [`FrameReader`] takes. A credit window of
/// frames that would need more is read a few frames at a time, and a frame
/// larger than this is read into an allocation of its own.
const MAX_READ: usize = 1 << 20;

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
/// reader would reject.
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

/// Writes a window of frames, each a header and its payload: all of them
/// leave in a single vectored write when the stream accepts them whole,
/// and the remainder — which may start inside any header or payload — is
/// retried until every frame is out. Whenever a nonblocking stream refuses
/// bytes (`WouldBlock`), `make_room` runs before the next attempt — it is
/// what empties the far end, or waits for someone else to. Returns how many
/// writes it made.
pub(super) fn write_frames<W: Write, P: AsRef<[u8]>>(
    mut stream: W,
    frames: &[([u8; HEADER_LEN], P)],
    mut make_room: impl FnMut() -> io::Result<()>,
) -> io::Result<usize> {
    let mut slices: Vec<IoSlice<'_>> = frames
        .iter()
        .flat_map(|(header, payload)| [IoSlice::new(header), IoSlice::new(payload.as_ref())])
        .collect();
    let mut left = &mut slices[..];
    let mut writes = 0;
    while !left.is_empty() {
        writes += 1;
        match stream.write_vectored(left) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => make_room()?,
            Err(e) => return Err(e),
        }
    }
    Ok(writes)
}

/// One decoded frame.
pub(super) struct Frame {
    pub(super) opcode: u8,
    pub(super) link: u64,
    pub(super) index: u64,
    pub(super) stripe: u64,
    pub(super) repair: u64,
    pub(super) payload: Bytes,
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

/// The header at the start of `bytes`, once all of it is there, and the
/// length of the whole frame it announces.
fn frame_at(bytes: &[u8]) -> io::Result<Option<([u8; HEADER_LEN], usize)>> {
    let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    Ok(Some((*header, HEADER_LEN + announced_len(header)?)))
}

fn decode(header: &[u8; HEADER_LEN], payload: Bytes) -> Frame {
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
/// path). It belongs to the connection, not to a link: bytes read ahead of
/// one link's last frame are the next link's first.
///
/// A read takes a buffer from a [`BufPool`] — one pool for every
/// connection of a transport, so idle connections hold no buffer — sized
/// for the link's credit window of frames as long as the last data frame,
/// and asks the socket for as much as fits. Every frame complete in the
/// buffer is handed out as a view of it: no copy, allocation or `memset`
/// per frame, and the buffer is let go as soon as its last frame is. A
/// frame cut off at the end of the buffer is carried to the front of the
/// next one; a frame too large to share a buffer gets an allocation of its
/// own, with the part not already read read straight into it. The reader
/// also takes whatever the connection's own sender moves out of a full
/// socket ([`FrameReader::fill`]), and reads that before the socket.
pub(super) struct FrameReader {
    pool: BufPool,
    /// The last buffer read; `window[pos..]` is not handed out yet.
    window: Bytes,
    pos: usize,
    /// What `fill` moved in, `backlog[..backlogged]`: behind the window's
    /// bytes (`fill` moves those to its front) and ahead of the socket's.
    backlog: Vec<u8>,
    backlogged: usize,
    /// Frames a read makes room for: the credit window of the link.
    capacity: usize,
    /// The payload length of the last data frame: what reads are sized by.
    frame_len: usize,
}

impl FrameReader {
    pub(super) fn new(pool: BufPool) -> Self {
        FrameReader {
            pool,
            window: Bytes::new(),
            pos: 0,
            backlog: Vec::new(),
            backlogged: 0,
            capacity: 1,
            frame_len: 0,
        }
    }

    /// Sizes later reads for a link that may have `frames` frames in
    /// flight.
    pub(super) fn set_capacity(&mut self, frames: usize) {
        self.capacity = frames.max(1);
    }

    /// Returns the next frame, taking the buffered bytes first and reading
    /// `src` — blocking — only when they hold no complete frame.
    /// End-of-stream — between frames or inside one — is `UnexpectedEof`; a
    /// bad header is `InvalidData`, after which the stream position is
    /// meaningless and the reader must be discarded.
    pub(super) fn read_frame<R: Read>(&mut self, src: R) -> io::Result<Frame> {
        if self.backlogged > 0 {
            // `fill` emptied the window into the backlog, so the backlog is
            // next: handed out as views too, of the allocation it grew in.
            let mut backlog = std::mem::take(&mut self.backlog);
            backlog.truncate(std::mem::take(&mut self.backlogged));
            self.window = backlog.into();
            self.pos = 0;
        }
        match self.next_in_window()? {
            Some(frame) => Ok(frame),
            None => self.read_window(src),
        }
    }

    /// Hands out the frame at the read position if all of it is buffered.
    fn next_in_window(&mut self) -> io::Result<Option<Frame>> {
        let Some((header, end)) = frame_at(&self.window[self.pos..])? else {
            return Ok(None);
        };
        if self.window.len() - self.pos < end {
            return Ok(None);
        }
        let payload = self.window.slice(self.pos + HEADER_LEN..self.pos + end);
        self.pos += end;
        if self.pos == self.window.len() {
            // Consumed: the buffer returns to the pool with its last view.
            self.window = Bytes::new();
            self.pos = 0;
        }
        Ok(Some(self.decoded(&header, payload)))
    }

    /// Reads a new buffer's worth — the unread start of a frame first — until
    /// it holds at least one whole frame, and hands that frame out.
    fn read_window<R: Read>(&mut self, mut src: R) -> io::Result<Frame> {
        let carried = std::mem::take(&mut self.window).slice(self.pos..);
        self.pos = 0;
        let size = self.read_size();
        if let Some((header, end)) = frame_at(&carried)? {
            if end > size {
                return self.read_alone(&header, end, &carried[HEADER_LEN..], src);
            }
        }
        let mut buf = self.pool.take(size);
        buf[..carried.len()].copy_from_slice(&carried);
        let mut filled = carried.len();
        drop(carried);
        loop {
            if let Some((header, end)) = frame_at(&buf[..filled])? {
                if end > size {
                    return self.read_alone(&header, end, &buf[HEADER_LEN..filled], src);
                }
                if filled >= end {
                    break;
                }
            }
            match src.read(&mut buf[filled..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.window = buf.freeze().slice(..filled);
        let frame = self.next_in_window()?;
        Ok(frame.expect("the loop above read a whole frame"))
    }

    /// A frame of `end` bytes that does not fit a read buffer: its payload
    /// is allocated once, at its announced length, and the part not in
    /// `buffered` is read straight into it — in one `read` when the frame
    /// is already complete in the socket, as it always is when the thread
    /// that sent it reads it.
    fn read_alone<R: Read>(
        &mut self,
        header: &[u8; HEADER_LEN],
        end: usize,
        buffered: &[u8],
        mut src: R,
    ) -> io::Result<Frame> {
        let mut payload = vec![0u8; end - HEADER_LEN];
        payload[..buffered.len()].copy_from_slice(buffered);
        src.read_exact(&mut payload[buffered.len()..])?;
        Ok(self.decoded(header, payload.into()))
    }

    /// How much to read at once: a credit window of frames as long as the
    /// last data frame, plus one stale frame ahead of them — or as many of
    /// them as fit in [`MAX_READ`].
    fn read_size(&self) -> usize {
        let frame = HEADER_LEN + self.frame_len;
        let frames = self.capacity.min(MAX_READ / frame);
        (frames * frame + HEADER_LEN).max(READ_BUF)
    }

    fn decoded(&mut self, header: &[u8; HEADER_LEN], payload: Bytes) -> Frame {
        if header[0] == OP_DATA {
            self.frame_len = payload.len();
        }
        decode(header, payload)
    }

    /// Moves every byte `recv_now` can hand over without waiting into the
    /// backlog, doubling it as often as that takes, and returns how many it
    /// moved. `recv_now` must not block: it reports an empty source as
    /// `WouldBlock`, which ends the fill. End-of-stream is `UnexpectedEof`
    /// (what was moved before it stays buffered).
    pub(super) fn fill(
        &mut self,
        mut recv_now: impl FnMut(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        if self.backlogged == 0 {
            // What is left of the window comes first: it leads the backlog.
            let unread = std::mem::take(&mut self.window).slice(self.pos..);
            self.pos = 0;
            self.backlog.clear();
            self.backlog.extend_from_slice(&unread);
            self.backlogged = unread.len();
        }
        let mut moved = 0;
        loop {
            if self.backlogged == self.backlog.len() {
                let doubled = (2 * self.backlog.len()).max(READ_BUF);
                self.backlog.resize(doubled, 0);
            }
            match recv_now(&mut self.backlog[self.backlogged..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.backlogged += n;
                    moved += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Seen = (u8, u64, u64, u64, u64, Vec<u8>);

    fn seen(f: Frame) -> Seen {
        (
            f.opcode,
            f.link,
            f.index,
            f.stripe,
            f.repair,
            f.payload[..].to_vec(),
        )
    }

    fn frame_bytes(opcode: u8, link: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = encode_header(opcode, link, 1, 2, 3, payload.len() as u32).to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// A three-frame stream (one payload larger than the first read) and
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

    /// A `Read` that hands out at most `chunk` bytes per call, and counts
    /// the calls.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(data: &'a [u8], chunk: usize) -> Self {
            Chunked {
                data,
                chunk,
                reads: 0,
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Decodes `src` to its end with `reader`, returning the frames and the
    /// error that ended the stream.
    fn read_rest(reader: &mut FrameReader, mut src: impl Read) -> (Vec<Seen>, io::Error) {
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(&mut src) {
                Ok(f) => frames.push(seen(f)),
                Err(e) => return (frames, e),
            }
        }
    }

    /// Decodes `wire` with a fresh blocking reader fed `chunk` bytes at a
    /// time.
    fn read_all(wire: &[u8], chunk: usize) -> (Vec<Seen>, io::Error) {
        read_rest(
            &mut FrameReader::new(BufPool::new()),
            Chunked::new(wire, chunk),
        )
    }

    /// Moves `backlog` into `reader` the way a sender draining its full
    /// socket does, at most 1000 bytes per call.
    fn fill_from(reader: &mut FrameReader, mut backlog: &[u8]) -> usize {
        reader
            .fill(|buf| {
                if backlog.is_empty() {
                    return Err(ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(backlog.len()).min(1000);
                buf[..n].copy_from_slice(&backlog[..n]);
                backlog = &backlog[n..];
                Ok(n)
            })
            .unwrap()
    }

    #[test]
    fn decoder_handles_split_and_coalesced_frames() {
        let (wire, expected) = sample_stream();
        for chunk in [1, 2, 36, 37, 38, 100, READ_BUF - 1, READ_BUF, wire.len()] {
            let (frames, end) = read_all(&wire, chunk);
            assert_eq!(frames, expected, "reader, chunk {chunk}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
        }
    }

    /// A window a sender wrote with one `writev` comes back with one `read`,
    /// every frame a view of the same pooled buffer — consecutive, so no
    /// payload was copied — and once the window's last view is gone, the
    /// next window is read into that same buffer.
    #[test]
    fn a_window_is_read_at_once_as_views_of_one_buffer() {
        const LEN: usize = 32 << 10;
        const DEPTH: usize = 8;
        let frame = |index: u64| {
            let payload: Vec<u8> = (0..LEN).map(|i| (i as u64 * 13 + index) as u8).collect();
            let mut out = encode_header(OP_DATA, 7, index, 2, 3, LEN as u32).to_vec();
            out.extend_from_slice(&payload);
            out
        };
        let pool = BufPool::new();
        let mut reader = FrameReader::new(pool.clone());
        reader.set_capacity(DEPTH);
        // The first frame teaches the reader how long frames are.
        let first = frame(0);
        let mut src = Chunked::new(&first, usize::MAX);
        assert_eq!(seen(reader.read_frame(&mut src).unwrap()).5.len(), LEN);
        let mut buffers = Vec::new();
        for window in 0..2u64 {
            let wire: Vec<u8> = (0..DEPTH as u64)
                .flat_map(|j| frame(1 + window * 8 + j))
                .collect();
            let mut src = Chunked::new(&wire, usize::MAX);
            let frames: Vec<Frame> = (0..DEPTH)
                .map(|_| reader.read_frame(&mut src).unwrap())
                .collect();
            assert_eq!(src.reads, 1, "window {window} took {} reads", src.reads);
            let base = frames[0].payload.as_ptr() as usize;
            for (j, f) in frames.iter().enumerate() {
                assert_eq!(f.index, 1 + window * 8 + j as u64);
                assert_eq!(f.payload.len(), LEN);
                assert_eq!(
                    &f.payload[..],
                    &wire[j * (HEADER_LEN + LEN) + HEADER_LEN..][..LEN]
                );
                let at = f.payload.as_ptr() as usize - base;
                assert_eq!(at, j * (HEADER_LEN + LEN), "frame {j} is not a view");
            }
            buffers.push(base);
            drop(frames);
            assert_eq!(pool.retained(), 1, "a consumed buffer goes back at once");
        }
        assert_eq!(
            buffers[0], buffers[1],
            "the second window reused the buffer"
        );
    }

    /// Reads sized for two frames cut the third one off: it is carried to
    /// the next buffer and decodes whole, wherever the socket splits the
    /// stream, and a frame larger than any read buffer still arrives.
    #[test]
    fn frames_straddling_a_read_buffer_still_decode() {
        let lens = [3000, 3000, 5000, 100, 3000, MAX_READ + 1, 3000];
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|b| (b * 31 + i) as u8).collect();
            wire.extend(frame_bytes(OP_DATA, 9, &payload));
            expected.push((OP_DATA, 9, 1, 2, 3, payload));
        }
        for chunk in [1000, 3036, 3037, 6111, 6112, 10_000, wire.len()] {
            let mut reader = FrameReader::new(BufPool::new());
            reader.set_capacity(2);
            let (frames, end) = read_rest(&mut reader, Chunked::new(&wire, chunk));
            assert_eq!(frames, expected, "chunk {chunk}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
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
            let mut reader = FrameReader::new(BufPool::new());
            assert_eq!(fill_from(&mut reader, &wire[..cut]), cut);
            let (frames, end) = read_rest(&mut reader, Chunked::new(&wire[cut..], 64));
            assert_eq!(frames, expected, "cut {cut}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
        }
        let mut reader = FrameReader::new(BufPool::new());
        let eof = reader.fill(|_| Ok(0)).unwrap_err();
        assert_eq!(eof.kind(), ErrorKind::UnexpectedEof);
    }

    /// A backlog filled while a read window is half handed out goes behind
    /// the window's unread frames, not ahead of them.
    #[test]
    fn a_backlog_filled_mid_window_stays_behind_it() {
        let (wire, expected) = sample_stream();
        // The HELLO, the big frame and 10 bytes of the small one arrive in
        // one read; the rest is moved into the backlog after one frame.
        let split = 2 * HEADER_LEN + 3 * READ_BUF + 5 + 10;
        for chunk in [split, HEADER_LEN] {
            let mut reader = FrameReader::new(BufPool::new());
            reader.set_capacity(4);
            let mut src = Chunked::new(&wire[..split], chunk);
            let mut frames = vec![seen(reader.read_frame(&mut src).unwrap())];
            let rest = &wire[split..];
            fill_from(&mut reader, src.data);
            fill_from(&mut reader, rest);
            let (more, end) = read_rest(&mut reader, io::empty());
            frames.extend(more);
            assert_eq!(frames, expected, "chunk {chunk}");
            assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn decoder_roundtrips_metadata() {
        let mut wire = encode_header(OP_DATA, 11, 22, 33, 44, 2).to_vec();
        wire.extend_from_slice(b"xy");
        let expected = vec![(OP_DATA, 11, 22, 33, 44, b"xy".to_vec())];
        assert_eq!(read_all(&wire, wire.len()).0, expected);
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
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_any_allocation() {
        for len in [u32::MAX, MAX_FRAME_LEN as u32 + 1] {
            let wire = encode_header(OP_DATA, 1, 0, 0, 0, len);
            let (frames, end) = read_all(&wire, wire.len());
            assert!(frames.is_empty());
            assert_eq!(end.kind(), ErrorKind::InvalidData);
        }
        // The limit itself is legal: the reader waits for the payload.
        let wire = encode_header(OP_DATA, 1, 0, 0, 0, MAX_FRAME_LEN as u32);
        assert_eq!(read_all(&wire, 5).1.kind(), ErrorKind::UnexpectedEof);
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
        }
    }

    #[test]
    fn write_frames_survive_short_writes() {
        /// Accepts at most `limit` bytes per call, vectored or not, and
        /// refuses every other call with `WouldBlock` when `full`.
        struct Short {
            out: Vec<u8>,
            limit: usize,
            calls: usize,
            full: bool,
        }
        impl Write for Short {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.calls += 1;
                if self.full && self.calls % 2 == 1 {
                    return Err(ErrorKind::WouldBlock.into());
                }
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
        let frames: Vec<([u8; HEADER_LEN], Vec<u8>)> = [200, 0, 1000, 37]
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                let payload: Vec<u8> = (0..len).map(|b| (b + i) as u8).collect();
                let header = encode_header(OP_DATA, 11, i as u64, 33, 44, len as u32);
                (header, payload)
            })
            .collect();
        let expected: Vec<u8> = frames
            .iter()
            .flat_map(|(h, p)| h.iter().chain(p).copied())
            .collect();
        // Cuts inside the first header, at its end, inside the first
        // payload, inside the second (empty-payload) frame's header and
        // inside the third payload.
        for limit in [1, 10, HEADER_LEN, HEADER_LEN + 1, 64, 250, 300, 1 << 20] {
            for full in [false, true] {
                let mut sink = Short {
                    out: Vec::new(),
                    limit,
                    calls: 0,
                    full,
                };
                let mut refused = 0;
                let writes = write_frames(&mut sink, &frames, || {
                    refused += 1;
                    Ok(())
                })
                .unwrap();
                assert_eq!(sink.out, expected, "limit {limit}, full {full}");
                assert_eq!(writes, sink.calls);
                assert_eq!(refused, if full { sink.calls / 2 } else { 0 });
                if limit >= expected.len() && !full {
                    assert_eq!(writes, 1, "a window the sink takes whole is one write");
                }
            }
        }
    }
}
