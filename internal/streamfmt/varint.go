package streamfmt

// Binary varint helpers shared by the wire codecs (internal/dist encodes
// protocol frames with them). Unsigned values use LEB128 (the
// encoding/binary varint format); signed values are zigzag-folded first
// so small-magnitude deltas of either sign stay short. Delta coding of
// sorted integer vectors — the codec's workhorse for cell indices and
// grid points — is provided on top.

import "encoding/binary"

// MaxVarintLen is the maximum encoded length of one varint (64-bit).
const MaxVarintLen = binary.MaxVarintLen64

// AppendUvarint appends v in LEB128 and returns the extended slice.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint decodes a LEB128 value from the front of b, returning the value
// and the number of bytes consumed. n <= 0 signals a truncated (n == 0)
// or overlong (n < 0) encoding as encoding/binary reports it; a padded
// encoding — more than one byte, the last of them zero — is rejected as
// overlong too, so every value has exactly one accepted encoding, the
// one AppendUvarint writes.
func Uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// ZigzagEncode folds a signed value into an unsigned one with small
// magnitudes mapping to small codes: 0,-1,1,-2,2 → 0,1,2,3,4.
func ZigzagEncode(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// ZigzagDecode inverts ZigzagEncode.
func ZigzagDecode(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// AppendZigzag appends the zigzag-folded varint of v.
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, ZigzagEncode(v))
}

// Zigzag decodes a zigzag-folded varint from the front of b; n follows
// the Uvarint convention.
func Zigzag(b []byte) (int64, int) {
	u, n := Uvarint(b)
	return ZigzagDecode(u), n
}

// AppendDeltaVec appends vec coordinate-wise as zigzag deltas against
// prev, then copies vec into prev so consecutive calls delta-chain.
// len(prev) must equal len(vec); the first vector of a sequence deltas
// against the zero vector (prev freshly allocated).
func AppendDeltaVec(dst []byte, prev, vec []int64) []byte {
	for j, v := range vec {
		dst = AppendZigzag(dst, v-prev[j])
		prev[j] = v
	}
	return dst
}

// DeltaVec decodes len(prev) zigzag deltas from the front of b, adding
// them into prev (which then holds the reconstructed vector), and returns
// the bytes consumed. ok is false on a truncated, overlong or padded
// encoding.
func DeltaVec(b []byte, prev []int64) (n int, ok bool) {
	for j := range prev {
		d, m := Zigzag(b[n:])
		if m <= 0 {
			return n, false
		}
		prev[j] += d
		n += m
	}
	return n, true
}
