//! The authenticated wire envelope every frame carries.
//!
//! A [`WrapperMsg`] wraps one transport event — handshake, protocol
//! payload, virtual-time promise, or completion notice — in a fixed
//! little-endian header plus an opaque body, tagged with SipHash-2-4
//! over everything that precedes the tag. The header carries the two
//! sequence spaces the transport needs:
//!
//! * `wire_seq` — per directed link, strictly increasing over **all**
//!   frames; the receiver's replay filter (a stale or repeated number is
//!   dropped before delivery).
//! * `lseq` — per directed link, counting **Data** frames only; the
//!   ordinal fed to the deterministic delay function, so both a
//!   networked receiver and the in-process reference compute the same
//!   [`async_net::link_delay`] for the same message.
//!
//! `vsend`/`vdeliver` are IEEE-754 bit patterns of the sender's virtual
//! clock: on Data frames the send and scheduled-delivery times, on Null
//! frames the sender's promise that no future Data will have
//! `vdeliver` below `vsend` (the Chandy–Misra–Bryant null message).

use crate::codec::{CodecError, Reader, WireCodec};
use crate::mac::{siphash24, MacKey};

/// Envelope discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: body is config fingerprint + wire version.
    Hello,
    /// A protocol payload scheduled for virtual time `vdeliver`.
    Data,
    /// A virtual-time promise (no payload): no future Data on this link
    /// will be scheduled before `vsend`.
    Null,
    /// The sender has produced its output and will send no more Data.
    Done,
    /// Acknowledges a received `Done` (no payload). `Done` frames are
    /// re-announced on a wall-clock keepalive until acknowledged, so a
    /// completion notice lost on a live-but-lossy link cannot stall the
    /// peer's termination.
    DoneAck,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Data => 1,
            FrameKind::Null => 2,
            FrameKind::Done => 3,
            FrameKind::DoneAck => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(FrameKind::Hello),
            1 => Ok(FrameKind::Data),
            2 => Ok(FrameKind::Null),
            3 => Ok(FrameKind::Done),
            4 => Ok(FrameKind::DoneAck),
            tag => Err(CodecError::BadTag {
                what: "FrameKind",
                tag,
            }),
        }
    }
}

/// Wire protocol version, carried in Hello bodies; bumped on any layout
/// change so mismatched builds fail the handshake instead of
/// misinterpreting frames. Version 2 added the reverse-link HaveSet to
/// the Hello body (crash-recovery resend negotiation) and the
/// `DoneAck` keepalive acknowledgement.
pub const WIRE_VERSION: u32 = 2;

/// Header bytes preceding the body: kind(1) + from(4) + to(4) +
/// wire_seq(8) + lseq(8) + vsend(8) + vdeliver(8) + body_len(4).
pub const HEADER_LEN: usize = 45;

/// The authenticated envelope. See the module docs for field semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct WrapperMsg {
    /// What this frame is.
    pub kind: FrameKind,
    /// Sender party index.
    pub from: u32,
    /// Intended receiver party index (MAC'd, so a frame cannot be
    /// redirected between links sharing a pair key).
    pub to: u32,
    /// Per-directed-link all-frames counter (replay filter).
    pub wire_seq: u64,
    /// Per-directed-link Data ordinal (delay derivation); 0 on non-Data.
    pub lseq: u64,
    /// Sender virtual time (bit-exact f64).
    pub vsend: f64,
    /// Scheduled virtual delivery time; equals `vsend` on non-Data.
    pub vdeliver: f64,
    /// Opaque payload (codec-encoded protocol message, or Hello info).
    pub body: Vec<u8>,
    /// SipHash-2-4 over header + body under the pair key.
    pub mac: u64,
}

impl WrapperMsg {
    /// The bytes the MAC covers: the full header and body, everything
    /// except the trailing tag itself.
    #[must_use]
    pub fn mac_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.push(self.kind.tag());
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.to.to_le_bytes());
        out.extend_from_slice(&self.wire_seq.to_le_bytes());
        out.extend_from_slice(&self.lseq.to_le_bytes());
        out.extend_from_slice(&self.vsend.to_bits().to_le_bytes());
        out.extend_from_slice(&self.vdeliver.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Returns the envelope with its MAC computed under `key`.
    #[must_use]
    pub fn signed(mut self, key: MacKey) -> Self {
        self.mac = siphash24(key, &self.mac_bytes());
        self
    }

    /// Whether the stored MAC verifies under `key`.
    #[must_use]
    pub fn verify(&self, key: MacKey) -> bool {
        siphash24(key, &self.mac_bytes()) == self.mac
    }

    /// Serializes header + body + MAC tag.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.mac_bytes();
        out.extend_from_slice(&self.mac.to_le_bytes());
        out
    }

    /// Parses an envelope from a complete frame payload.
    ///
    /// Purely structural — MAC verification is a separate, explicit
    /// step ([`WrapperMsg::verify`]) so rejects can be counted apart
    /// from malformed frames.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the bytes are not exactly one well-formed
    /// envelope (bad kind tag, body length mismatch, truncation,
    /// trailing bytes).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let kind = FrameKind::from_tag(r.u8()?)?;
        let from = r.u32()?;
        let to = r.u32()?;
        let wire_seq = r.u64()?;
        let lseq = r.u64()?;
        let vsend = f64::from_bits(r.u64()?);
        let vdeliver = f64::from_bits(r.u64()?);
        let body_len = r.u32()? as usize;
        // Exactly body + 8-byte MAC must remain.
        if r.remaining() != body_len + 8 {
            return Err(if r.remaining() < body_len + 8 {
                CodecError::Truncated
            } else {
                CodecError::TrailingBytes {
                    extra: r.remaining() - body_len - 8,
                }
            });
        }
        let body = r.bytes(body_len)?.to_vec();
        let mac = r.u64()?;
        Ok(WrapperMsg {
            kind,
            from,
            to,
            wire_seq,
            lseq,
            vsend,
            vdeliver,
            body,
            mac,
        })
    }
}

/// Hard cap on the number of non-contiguous HaveSet entries a Hello may
/// carry; an honest node's gaps are bounded by in-flight traffic, so
/// anything larger is garbage or an attack.
pub const MAX_HAVE_EXTRAS: usize = 1 << 14;

/// The Hello body: proves both ends run the same wire layout and the
/// same experiment configuration before any protocol traffic flows, and
/// (since wire version 2) reports which Data `lseq`s the sender already
/// holds on the **reverse** link, so a reconnecting peer can resend
/// exactly the frames lost to the crash or reset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloBody {
    /// Fingerprint of the run configuration (tree, inputs, seed, n, t,
    /// min_delay); mismatch aborts the connection.
    pub config_fp: u64,
    /// Wire protocol version.
    pub version: u32,
    /// All Data `lseq`s below this on the reverse link have been
    /// received (contiguous prefix).
    pub have_prefix: u64,
    /// Received `lseq`s at or above `have_prefix` (out-of-order tail),
    /// strictly increasing: decoding refuses any other order.
    pub have_extras: Vec<u64>,
}

impl HelloBody {
    /// Whether the sender reported holding Data ordinal `lseq` on the
    /// reverse link.
    #[must_use]
    pub fn has(&self, lseq: u64) -> bool {
        lseq < self.have_prefix || self.have_extras.binary_search(&lseq).is_ok()
    }
}

impl WireCodec for HelloBody {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.config_fp.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.have_prefix.to_le_bytes());
        out.extend_from_slice(&(self.have_extras.len() as u32).to_le_bytes());
        for lseq in &self.have_extras {
            out.extend_from_slice(&lseq.to_le_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config_fp = r.u64()?;
        let version = r.u32()?;
        let have_prefix = r.u64()?;
        let count = r.u32()? as usize;
        if count > MAX_HAVE_EXTRAS {
            return Err(CodecError::BadLength { announced: count });
        }
        let mut have_extras = Vec::with_capacity(count);
        for _ in 0..count {
            have_extras.push(r.u64()?);
        }
        // `has` binary-searches them: out of order, it would skip or
        // repeat gap-resends.
        if !have_extras.is_sorted_by(|a, b| a < b) {
            let what = "hello have_extras (not strictly increasing)";
            return Err(CodecError::BadValue { what });
        }
        Ok(HelloBody {
            config_fp,
            version,
            have_prefix,
            have_extras,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::pair_key;

    fn sample() -> WrapperMsg {
        WrapperMsg {
            kind: FrameKind::Data,
            from: 1,
            to: 2,
            wire_seq: 17,
            lseq: 4,
            vsend: 1.25,
            vdeliver: 2.125,
            body: vec![9, 8, 7],
            mac: 0,
        }
    }

    #[test]
    fn envelope_roundtrips_bit_exactly() {
        let key = pair_key(99, 1, 2);
        let msg = sample().signed(key);
        let bytes = msg.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 3 + 8);
        let back = WrapperMsg::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert!(back.verify(key));
    }

    #[test]
    fn verification_fails_on_any_header_or_body_change() {
        let key = pair_key(99, 1, 2);
        let msg = sample().signed(key);
        for (i, _) in msg.encode().iter().enumerate() {
            let mut bytes = msg.encode();
            bytes[i] ^= 1;
            // Flips in the kind tag or body_len can make the frame
            // structurally invalid instead — equally rejected.
            if let Ok(tampered) = WrapperMsg::decode(&bytes) {
                assert!(
                    !tampered.verify(key),
                    "bit flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn wrong_key_fails_verification() {
        let msg = sample().signed(pair_key(99, 1, 2));
        assert!(!msg.verify(pair_key(99, 1, 3)));
        assert!(!msg.verify(pair_key(98, 1, 2)));
    }

    #[test]
    fn body_length_must_match_exactly() {
        let msg = sample().signed(pair_key(99, 1, 2));
        let mut truncated = msg.encode();
        truncated.pop();
        assert_eq!(WrapperMsg::decode(&truncated), Err(CodecError::Truncated));
        let mut padded = msg.encode();
        padded.push(0);
        assert_eq!(
            WrapperMsg::decode(&padded),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn hello_body_roundtrips() {
        let h = HelloBody {
            config_fp: 0xfeed_f00d,
            version: WIRE_VERSION,
            have_prefix: 12,
            have_extras: vec![14, 17, 900],
        };
        assert_eq!(HelloBody::from_bytes(&h.to_bytes()).unwrap(), h);
        assert!(h.has(0) && h.has(11) && h.has(14) && h.has(900));
        assert!(!h.has(12) && !h.has(15) && !h.has(901));
    }

    #[test]
    fn hello_body_rejects_absurd_have_lists() {
        let mut bytes = HelloBody {
            config_fp: 1,
            version: WIRE_VERSION,
            have_prefix: 0,
            have_extras: Vec::new(),
        }
        .to_bytes();
        // Overwrite the extras count with an absurd value.
        let count_at = 8 + 4 + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            HelloBody::from_bytes(&bytes),
            Err(CodecError::BadLength { .. }) | Err(CodecError::Truncated)
        ));

        // The extras must be strictly increasing, as `has` assumes.
        for extras in [vec![14, 17, 15], vec![14, 17, 17], vec![3, 3]] {
            let bytes = HelloBody {
                config_fp: 1,
                version: WIRE_VERSION,
                have_prefix: 0,
                have_extras: extras.clone(),
            }
            .to_bytes();
            assert!(
                matches!(
                    HelloBody::from_bytes(&bytes),
                    Err(CodecError::BadValue { .. })
                ),
                "{extras:?}"
            );
        }
    }
}
