package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeRecords feeds arbitrary bytes to DecodeRecords and checks
// that it reports a valid prefix and nothing else: validLen lies within
// the input, the error is nil exactly when the whole input decodes and
// otherwise wraps ErrCorrupt, re-framing the returned records
// reproduces the prefix byte for byte, and decoding the prefix alone
// returns the same records without error. The seed corpus in
// testdata/fuzz/FuzzDecodeRecords holds a clean multi-record stream, a
// torn body, a short header, a flipped CRC byte and an oversized
// length prefix.
func FuzzDecodeRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, validLen, err := DecodeRecords(b)
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(b))
		}
		if (err == nil) != (validLen == int64(len(b))) {
			t.Fatalf("validLen %d of %d bytes with err = %v", validLen, len(b), err)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		var reframed []byte
		for _, r := range recs {
			reframed = appendFrame(reframed, r.LSN, r.Payload)
		}
		if !bytes.Equal(reframed, b[:validLen]) {
			t.Fatalf("re-framed %d records give %d bytes, not the %d-byte valid prefix", len(recs), len(reframed), validLen)
		}
		again, againLen, err := DecodeRecords(b[:validLen])
		if err != nil || againLen != validLen || !reflect.DeepEqual(again, recs) {
			t.Fatalf("decoding the valid prefix: %d records, validLen %d, err = %v; want %d records, validLen %d, nil",
				len(again), againLen, err, len(recs), validLen)
		}
	})
}
