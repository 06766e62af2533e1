//! Binary serialization for protocol messages.
//!
//! The simulators pass messages by value; real sockets need bytes. The
//! codec is deliberately boring: little-endian fixed-width integers, one
//! tag byte per enum, length-prefixed sequences — a format simple enough
//! to audit against the decoder by eye. Decoding is total: any byte
//! string either parses or returns [`CodecError`]; it never panics and
//! never reads out of bounds, which the property tests in
//! `tests/frame_props.rs` hammer on.

use std::fmt;
use std::sync::Arc;

use async_aa::{AsyncAaMsg, RbcMsg};
use async_net::RelMsg;
use gradecast::{GcBundle, GcBundleMsg, GcValue};
use real_aa::{BundledAaMsg, R64};
use sim_net::PartyId;

/// A decode failure. Carries just enough context to report which layer
/// rejected the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// Bytes remained after a complete top-level value.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A length field announced more elements than the buffer could hold.
    BadLength {
        /// The announced element count.
        announced: usize,
    },
    /// A field held bits with no canonical meaning (non-finite float,
    /// nonzero bitmap padding). Rejected so every value has exactly one
    /// encoding and decode never constructs an invalid domain value.
    BadValue {
        /// The type whose invariant the bytes violated.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated value"),
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
            CodecError::BadLength { announced } => {
                write!(f, "length {announced} exceeds remaining input")
            }
            CodecError::BadValue { what } => write!(f, "non-canonical bytes for {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// A type with a canonical byte encoding. Encoding is infallible;
/// decoding is total and allocation-bounded by the input length.
pub trait WireCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] describing the first malformed element.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a complete value, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`WireCodec::decode`], plus [`CodecError::TrailingBytes`] if
    /// the value does not consume the whole input.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(CodecError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl WireCodec for RbcMsg<u32> {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, v) = match self {
            RbcMsg::Init(v) => (0u8, *v),
            RbcMsg::Echo(v) => (1u8, *v),
            RbcMsg::Ready(v) => (2u8, *v),
        };
        out.push(tag);
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let v = r.u32()?;
        match tag {
            0 => Ok(RbcMsg::Init(v)),
            1 => Ok(RbcMsg::Echo(v)),
            2 => Ok(RbcMsg::Ready(v)),
            tag => Err(CodecError::BadTag {
                what: "RbcMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for AsyncAaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AsyncAaMsg::Rbc {
                iter,
                broadcaster,
                inner,
            } => {
                out.push(0);
                out.extend_from_slice(&iter.to_le_bytes());
                out.extend_from_slice(&(broadcaster.index() as u32).to_le_bytes());
                inner.encode(out);
            }
            AsyncAaMsg::Report { iter, entries } => {
                out.push(1);
                out.extend_from_slice(&iter.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (p, v) in entries {
                    out.extend_from_slice(&p.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let iter = r.u32()?;
                let broadcaster = PartyId(r.u32()? as usize);
                let inner = RbcMsg::decode(r)?;
                Ok(AsyncAaMsg::Rbc {
                    iter,
                    broadcaster,
                    inner,
                })
            }
            1 => {
                let iter = r.u32()?;
                let count = r.u32()? as usize;
                // 8 bytes per entry: reject impossible counts before
                // allocating.
                if count > r.remaining() / 8 {
                    return Err(CodecError::BadLength { announced: count });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.u32()?, r.u32()?));
                }
                Ok(AsyncAaMsg::Report { iter, entries })
            }
            tag => Err(CodecError::BadTag {
                what: "AsyncAaMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl WireCodec for R64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.get().to_bits().to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // `R64::new` panics on non-finite input; decode must stay total,
        // so the check happens here on the raw bits.
        let x = f64::from_bits(r.u64()?);
        if !x.is_finite() {
            return Err(CodecError::BadValue { what: "R64" });
        }
        Ok(R64::new(x))
    }
}

/// Appends a slot width and its presence bitmap.
fn put_bitmap(out: &mut Vec<u8>, present: impl ExactSizeIterator<Item = bool>) {
    out.extend_from_slice(&(present.len() as u32).to_le_bytes());
    let bitmap = out.len();
    out.resize(bitmap + present.len().div_ceil(8), 0);
    for (slot, _) in present.enumerate().filter(|&(_, p)| p) {
        out[bitmap + slot / 8] |= 1 << (slot % 8);
    }
}

/// Reads a slot width and its bitmap onto `present`; returns the width.
fn get_bitmap(r: &mut Reader<'_>, present: &mut Vec<bool>) -> Result<usize, CodecError> {
    let n = r.u32()? as usize;
    // The bitmap alone needs ⌈n/8⌉ bytes: reject impossible widths
    // before allocating anything proportional to `n`.
    let bitmap = r
        .bytes(n.div_ceil(8))
        .map_err(|_| CodecError::BadLength { announced: n })?;
    let bit = |slot: usize| bitmap[slot / 8] & (1 << (slot % 8)) != 0;
    // Padding bits past slot n−1 must be zero so encode∘decode is the
    // identity on bytes, not just on values.
    if (n..bitmap.len() * 8).any(bit) {
        return Err(CodecError::BadValue {
            what: "bitmap padding",
        });
    }
    present.extend((0..n).map(bit));
    Ok(n)
}

/// A bundle has the bytes of nested slots (outer over instances, inner
/// over leaders), written from and read into its lanes.
impl<T: WireCodec + GcValue> WireCodec for GcBundle<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bitmap(out, self.instances().map(|inst| inst.is_some()));
        for (present, keys) in self.instances().flatten() {
            put_bitmap(out, present.iter().copied());
            for (_, &key) in present.iter().zip(keys).filter(|(&p, _)| p) {
                T::from_bits64(key).encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut outer = Vec::new();
        get_bitmap(r, &mut outer)?;
        let count = outer.iter().filter(|&&p| p).count();
        let (mut widths, mut present, mut keys) =
            (Vec::with_capacity(count), Vec::new(), Vec::new());
        for _ in 0..count {
            if widths.is_empty() {
                // Room for `count` instances of the first width (exact
                // if honest), each lane a bitmap bit of input: one block
                // per lane vector whatever `count` is.
                let n = r.clone().u32()? as usize;
                let lanes = n.saturating_mul(count).min(8 * r.remaining());
                present.reserve_exact(lanes);
                keys.reserve_exact(lanes);
            }
            let at = present.len();
            let n = get_bitmap(r, &mut present)?;
            keys.resize(at + n, 0);
            for lane in (at..at + n).filter(|&lane| present[lane]) {
                keys[lane] = T::decode(r)?.bits64();
            }
            widths.push(n);
        }
        Ok(GcBundle::from_lanes(outer, widths, present, keys).expect("lanes decoded per width"))
    }
}

/// A lead has the bytes of slots over instances: a width, a bitmap, the
/// present values.
impl<V: WireCodec + GcValue> WireCodec for GcBundleMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GcBundleMsg::Leads(leads) => {
                out.push(0);
                put_bitmap(out, leads.iter().map(Option::is_some));
                leads.iter().flatten().for_each(|v| v.encode(out));
            }
            GcBundleMsg::Echoes(b) => {
                out.push(1);
                b.encode(out);
            }
            GcBundleMsg::Votes(b) => {
                out.push(2);
                b.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let mut present = Vec::new();
                get_bitmap(r, &mut present)?;
                let leads = present
                    .into_iter()
                    .map(|p| p.then(|| V::decode(r)).transpose());
                Ok(GcBundleMsg::Leads(leads.collect::<Result<_, _>>()?))
            }
            1 => Ok(GcBundleMsg::Echoes(Arc::new(GcBundle::decode(r)?))),
            2 => Ok(GcBundleMsg::Votes(Arc::new(GcBundle::decode(r)?))),
            tag => Err(CodecError::BadTag {
                what: "GcBundleMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for BundledAaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.iter.to_le_bytes());
        self.body.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let iter = r.u32()?;
        let body = GcBundleMsg::decode(r)?;
        Ok(BundledAaMsg { iter, body })
    }
}

impl<M: WireCodec> WireCodec for RelMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RelMsg::Data { seq, inner } => {
                out.push(0);
                out.extend_from_slice(&seq.to_le_bytes());
                inner.encode(out);
            }
            RelMsg::Ack { seq } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let seq = r.u64()?;
                let inner = M::decode(r)?;
                Ok(RelMsg::Data { seq, inner })
            }
            1 => Ok(RelMsg::Ack { seq: r.u64()? }),
            tag => Err(CodecError::BadTag {
                what: "RelMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.to_bytes();
        assert_eq!(M::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn protocol_messages_roundtrip() {
        roundtrip(0xdead_beef_u64 << 32);
        roundtrip(RbcMsg::Init(7u32));
        roundtrip(RbcMsg::Echo(0));
        roundtrip(RbcMsg::Ready(u32::MAX));
        roundtrip(AsyncAaMsg::Rbc {
            iter: 3,
            broadcaster: PartyId(2),
            inner: RbcMsg::Ready(5),
        });
        roundtrip(AsyncAaMsg::Report {
            iter: 0,
            entries: vec![],
        });
        roundtrip(AsyncAaMsg::Report {
            iter: 9,
            entries: vec![(0, 4), (3, 1), (u32::MAX, 0)],
        });
        roundtrip(RelMsg::Data {
            seq: 42,
            inner: AsyncAaMsg::Rbc {
                iter: 1,
                broadcaster: PartyId(0),
                inner: RbcMsg::Init(2),
            },
        });
        roundtrip(RelMsg::<AsyncAaMsg>::Ack { seq: u64::MAX });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = RbcMsg::Init(1u32).to_bytes();
        bytes.push(0);
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_and_truncation_are_rejected() {
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&[9, 0, 0, 0, 0]),
            Err(CodecError::BadTag {
                what: "RbcMsg",
                tag: 9
            })
        );
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&[0, 1, 2]),
            Err(CodecError::Truncated)
        );
        assert_eq!(AsyncAaMsg::from_bytes(&[]), Err(CodecError::Truncated));
    }

    /// The bundle of nested slots: per instance, `None` if absent, else
    /// its slots over the leaders, `None` where absent.
    fn nested<T: GcValue>(slots: &[Option<Vec<Option<T>>>]) -> Arc<GcBundle<T>> {
        let outer = slots.iter().map(Option::is_some).collect();
        let widths = slots.iter().flatten().map(Vec::len).collect();
        let lanes = || slots.iter().flatten().flatten();
        let present = lanes().map(Option::is_some).collect();
        let keys = lanes().map(|e| e.as_ref().map_or(0, T::bits64)).collect();
        let bundle = GcBundle::from_lanes(outer, widths, present, keys);
        Arc::new(bundle.expect("nested slots are lanes"))
    }

    /// A lead message over `slots`, one per instance.
    fn leads<T: Clone>(slots: &[Option<T>]) -> GcBundleMsg<T> {
        GcBundleMsg::Leads(slots.into())
    }

    #[test]
    fn bundle_messages_roundtrip() {
        roundtrip(R64::new(-0.5));
        roundtrip(3u32);
        roundtrip(leads(&[Some(R64::new(1.0)), None, Some(R64::new(-2.5))]));
        roundtrip(leads::<u32>(&[None, None]));
        roundtrip(leads(&[Some(R64::new(0.25)), None]));
        roundtrip(GcBundleMsg::Echoes(nested(&[
            Some(vec![Some(R64::new(7.0)), None, Some(R64::new(0.0))]),
            None,
            Some(vec![None, None, None]),
        ])));
        roundtrip(GcBundleMsg::<R64>::Votes(nested(&[
            None,
            Some(vec![Some(0xdead_u32), Some(1), None]),
        ])));
        roundtrip(RelMsg::Data {
            seq: 7,
            inner: BundledAaMsg {
                iter: 2,
                body: leads(&[Some(R64::new(4.0))]),
            },
        });
    }

    /// Two colluding leaders (n = 7, t = 2) lead ∓`f64::MAX` in every
    /// instance through bundles that went through the codec, and follow
    /// the protocol otherwise: `R64` decodes both extremes, both are
    /// accepted, and every logged `realaa.iter` spread stays finite while
    /// the honest outputs stay in the hull and ε-agree.
    #[test]
    fn decoded_extreme_bundles_log_a_finite_spread() {
        use real_aa::{BundledAaParty, RealAaConfig};
        use sim_net::StaticByzantine;
        use sim_net::{run_simulation_traced, AdversaryCtx, EngineConfig, EventKind, SimConfig};
        let (n, t, k) = (7, 2, 3);
        let cfg = RealAaConfig::new(n, t, 1.0, 8.0).unwrap();
        let input = |p: usize, j: usize| match p {
            0 => -f64::MAX,
            1 => f64::MAX,
            _ => ((p * 3 + j) % 9) as f64,
        };
        let (report, trace) = run_simulation_traced(
            EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: 10 + cfg.rounds(),
            }),
            |id, _| {
                BundledAaParty::new(id, cfg, (0..k).map(|j| input(id.index(), j)).collect())
                    .unwrap()
            },
            StaticByzantine {
                parties: vec![PartyId(0), PartyId(1)],
                behave: |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
                    for p in [PartyId(0), PartyId(1)] {
                        let own: Vec<_> = ctx.tentative_outbox(p).envelopes().collect();
                        for env in own {
                            let wire = BundledAaMsg::from_bytes(&env.payload.to_bytes());
                            ctx.send(p, env.to, wire.expect("an honest bundle decodes"));
                        }
                    }
                },
            },
        )
        .unwrap();
        let spreads: Vec<f64> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Proto { event, .. } if event.label == "realaa.iter" => {
                    match event.field("spread") {
                        Some(aa_trace::Json::Num(x)) => Some(*x),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect();
        assert!(
            spreads.contains(&f64::MAX),
            "extremes not accepted: {spreads:?}"
        );
        assert!(spreads.iter().all(|s| s.is_finite()), "{spreads:?}");
        let outs = report.honest_outputs();
        for j in 0..k {
            let hull = (2..n).map(|p| input(p, j));
            let (lo, hi) = (
                hull.clone().fold(f64::MAX, f64::min),
                hull.fold(f64::MIN, f64::max),
            );
            let vals: Vec<f64> = outs.iter().map(|o| o[j]).collect();
            assert!(
                vals.iter().all(|v| (lo..=hi).contains(v)),
                "instance {j}: {vals:?}"
            );
            let spread = vals.iter().fold(f64::MIN, |a, &b| a.max(b))
                - vals.iter().fold(f64::MAX, |a, &b| a.min(b));
            assert!(spread <= cfg.eps, "instance {j}: {vals:?}");
        }
    }

    #[test]
    fn non_finite_reals_are_rejected_not_panicked_on() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                R64::from_bytes(&bad.to_bits().to_le_bytes()),
                Err(CodecError::BadValue { what: "R64" })
            );
        }
    }

    #[test]
    fn nonzero_bitmap_padding_is_rejected() {
        // A lead over n = 3 with the unused high bits of the bitmap byte
        // set: the same value as a clean encoding, so canonicality
        // demands a rejection.
        let mut bytes = vec![0];
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.push(0b1111_1000);
        assert_eq!(
            GcBundleMsg::<u32>::from_bytes(&bytes),
            Err(CodecError::BadValue {
                what: "bitmap padding"
            })
        );
    }

    #[test]
    fn slot_bytes_are_width_bitmap_then_present_entries() {
        // A lead is its tag, then slots over instances.
        let bytes = leads(&[Some(1u32), None, Some(2)]).to_bytes();
        assert_eq!(bytes[0], 0);
        let bytes = &bytes[1..];
        assert_eq!(bytes, [3, 0, 0, 0, 0b101, 1, 0, 0, 0, 2, 0, 0, 0]);
        // A bitmap that promises more entries than follow is a short read.
        let mut short = vec![0];
        short.extend_from_slice(&bytes[..9]);
        assert_eq!(
            GcBundleMsg::<u32>::from_bytes(&short),
            Err(CodecError::Truncated)
        );
    }

    /// The bundle wire, byte for byte: a width and a bitmap over
    /// instances, then per present instance a width, a bitmap over
    /// leaders and the present entries. `size_bytes` counts the tag, the
    /// bitmaps and the entries, not the widths.
    #[test]
    fn bundle_bytes_are_outer_bitmap_then_present_instances() {
        use sim_net::Payload;
        let echoes = GcBundleMsg::Echoes(nested(&[
            Some(vec![Some(R64::new(7.0)), None, Some(R64::new(-2.5))]),
            None,
            Some(vec![None, None, None]),
        ]));
        let votes = GcBundleMsg::<R64>::Votes(nested(&[
            Some(vec![None, None, None]),
            Some(vec![Some(0xdead_beef_u32), None, Some(1)]),
            None,
        ]));
        let solo = GcBundleMsg::Echoes(nested(&[Some(vec![Some(R64::new(1.0)), None])]));
        #[rustfmt::skip]
        let pins: [(&GcBundleMsg<R64>, &[u8], usize); 3] = [
            (&echoes, &[
                1, 3, 0, 0, 0, 0b101,
                3, 0, 0, 0, 0b101, 0, 0, 0, 0, 0, 0, 28, 64, 0, 0, 0, 0, 0, 0, 4, 192,
                3, 0, 0, 0, 0,
            ], 1 + 1 + (1 + 16) + 1),
            (&votes, &[
                2, 3, 0, 0, 0, 0b011,
                3, 0, 0, 0, 0,
                3, 0, 0, 0, 0b101, 239, 190, 173, 222, 1, 0, 0, 0,
            ], 1 + 1 + 1 + (1 + 8)),
            (&solo, &[
                1, 1, 0, 0, 0, 0b1,
                2, 0, 0, 0, 0b01, 0, 0, 0, 0, 0, 0, 240, 63,
            ], 1 + 1 + (1 + 8)),
        ];
        for (msg, bytes, size) in pins {
            assert_eq!(msg.to_bytes(), bytes, "{msg:?}");
            assert_eq!(msg.size_bytes(), size, "{msg:?}");
            assert_eq!(&GcBundleMsg::from_bytes(bytes).unwrap(), msg);
        }
    }

    /// Party 0 (n = 4, t = 1, k = 3) steps iteration 0 on decoded
    /// bundles; its echo and vote rounds hear exactly n − t senders (0, 1
    /// and 3), so one lost echo or vote changes what it sends. Party 3's
    /// honest echo and vote bundles each follow two malformed ones: outer
    /// width k + 1, and instance 1 at inner width n − 1. Neither claims
    /// an instance: party 0 sends what it sends without them — a vote
    /// for every leader of every instance — and mutes no one.
    #[test]
    fn decoded_malformed_bundles_claim_no_instance() {
        use real_aa::{BundledAaParty, RealAaConfig};
        use sim_net::RoundCtx;
        let (n, k) = (4, 3);
        let cfg = RealAaConfig::new(n, 1, 0.5, 10.0).unwrap();
        let wire = |m: &BundledAaMsg| BundledAaMsg::from_bytes(&m.to_bytes()).expect("decodes");
        let party = |p: usize| {
            let inputs = (0..k).map(|j| ((p * 7 + j * 3) % 11) as f64).collect();
            BundledAaParty::new(PartyId(p), cfg, inputs).unwrap()
        };
        // All-present instances of the given widths, each entry `e`.
        fn full<T: GcValue>(e: T, widths: &[usize]) -> Arc<GcBundle<T>> {
            let inner = |&w| Some(vec![Some(e.clone()); w]);
            nested(&widths.iter().map(inner).collect::<Vec<_>>())
        }
        // A `phase` (2 echoes, 3 votes) bundle carrying 1e9, outside
        // every honest hull.
        let junk = |phase: u32, widths: &[usize]| {
            let v = R64::new(1e9);
            let body = match phase {
                2 => GcBundleMsg::Echoes(full(v, widths)),
                _ => GcBundleMsg::Votes(full(v.hash32(), widths)),
            };
            wire(&BundledAaMsg { iter: 0, body })
        };
        let step = |p: &mut BundledAaParty, round, inbox: &[(PartyId, BundledAaMsg)]| {
            let mut ctx = RoundCtx::new(PartyId(0), n);
            p.step_on(round, inbox.iter().map(|(from, m)| (*from, m)), &mut ctx);
            ctx.into_outbox()
                .broadcasts()
                .iter()
                .map(wire)
                .collect::<Vec<_>>()
        };
        let mut parties: Vec<BundledAaParty> = (0..n).map(party).collect();
        let (mut reference, mut target) = (party(0), party(0));
        let mut sent: Vec<(PartyId, BundledAaMsg)> = Vec::new();
        for round in 1..=4 {
            let heard: Vec<_> = sent
                .iter()
                .filter(|(from, _)| round <= 2 || from.index() != 2)
                .cloned()
                .collect();
            let mut hostile = heard.clone();
            if round > 2 {
                let at = hostile
                    .iter()
                    .position(|(from, _)| from.index() == 3)
                    .unwrap();
                for widths in [vec![n; k + 1], vec![n, n - 1, n]] {
                    hostile.insert(at, (PartyId(3), junk(round - 1, &widths)));
                }
            }
            let want = step(&mut reference, round, &heard);
            assert_eq!(step(&mut target, round, &hostile), want, "round {round}");
            if round == 3 {
                let GcBundleMsg::Votes(votes) = &want[0].body else {
                    panic!("round 3 votes")
                };
                let mut instances = votes.instances();
                assert_eq!(instances.len(), k);
                assert!(instances.all(|inst| inst.is_some_and(|(p, _)| !p.contains(&false))));
            }
            sent = parties
                .iter_mut()
                .enumerate()
                .flat_map(|(p, party)| {
                    let mut ctx = RoundCtx::new(PartyId(p), n);
                    party.step_on(round, sent.iter().map(|(from, m)| (*from, m)), &mut ctx);
                    let out = ctx.into_outbox().broadcasts().to_vec();
                    out.iter()
                        .map(|m| (PartyId(p), wire(m)))
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        for j in 0..k {
            assert_eq!(target.muted_count(j), 0, "instance {j}");
        }
    }

    #[test]
    fn absurd_slot_count_is_rejected_before_allocation() {
        // A lead announcing u32::MAX instances, with no bitmap behind it.
        let mut bytes = vec![0];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&bytes),
            Err(CodecError::BadLength {
                announced: u32::MAX as usize
            })
        );
    }

    #[test]
    fn bundle_tags_are_checked() {
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&[3]),
            Err(CodecError::BadTag {
                what: "GcBundleMsg",
                tag: 3
            })
        );
        assert_eq!(
            BundledAaMsg::from_bytes(&[0, 0, 0]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn absurd_report_length_is_rejected_before_allocation() {
        // tag 1, iter, count = u32::MAX, no entries.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            AsyncAaMsg::from_bytes(&bytes),
            Err(CodecError::BadLength {
                announced: u32::MAX as usize
            })
        );
    }
}
