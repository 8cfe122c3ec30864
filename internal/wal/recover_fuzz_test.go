package wal

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenRecovers runs recovery over arbitrary files: the bytes of a
// first and a second segment and of one snapshot covering snapLSN (an
// empty input leaves that file out). Neither mode may panic. Non-strict
// Open must succeed and return records with contiguous LSNs from
// SnapshotLSN+1; after Close, a second Open must return the same state
// with nothing left to truncate. Strict Open, over a fresh copy of the
// same bytes, must either fail with an error wrapping ErrCorrupt or
// succeed with the non-strict state, in which case non-strict found
// nothing to truncate either. The seed corpus in
// testdata/fuzz/FuzzOpenRecovers holds a clean log, a torn tail, a
// flipped CRC byte and a snapshot ahead of its segment.
func FuzzOpenRecovers(f *testing.F) {
	const dir = "wal"
	f.Fuzz(func(t *testing.T, seg0, seg1, snap []byte, snapLSN uint16) {
		files := map[string][]byte{}
		if len(seg0) > 0 {
			files[filepath.Join(dir, segName(1))] = seg0
		}
		if len(seg1) > 0 {
			files[filepath.Join(dir, segName(1<<20))] = seg1
		}
		if len(snap) > 0 {
			files[filepath.Join(dir, snapName(uint64(snapLSN)))] = snap
		}
		open := func(fs FS, strict bool) (*Recovered, error) {
			l, rec, err := Open(dir, Options{FS: fs, Strict: strict})
			if err != nil {
				return nil, err
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return rec, nil
		}

		fs := NewMemFSFrom(files)
		rec, err := open(fs, false)
		if err != nil {
			t.Fatalf("non-strict Open: %v", err)
		}
		for i, r := range rec.Records {
			if want := rec.SnapshotLSN + 1 + uint64(i); r.LSN != want {
				t.Fatalf("record %d has LSN %d, want %d (snapshot %d)", i, r.LSN, want, rec.SnapshotLSN)
			}
		}
		again, err := open(fs, false)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if again.TruncatedBytes != 0 {
			t.Fatalf("second Open truncated %d bytes", again.TruncatedBytes)
		}
		if !sameState(again, rec) {
			t.Fatalf("second Open: snapshot %d with %d records, first gave snapshot %d with %d",
				again.SnapshotLSN, len(again.Records), rec.SnapshotLSN, len(rec.Records))
		}

		strict, err := open(NewMemFSFrom(files), true)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("strict Open: %v, want ErrCorrupt", err)
			}
			return
		}
		if !sameState(strict, rec) || strict.TruncatedBytes != 0 || rec.TruncatedBytes != 0 {
			t.Fatalf("strict Open: snapshot %d with %d records, truncated %d; non-strict: snapshot %d with %d, truncated %d",
				strict.SnapshotLSN, len(strict.Records), strict.TruncatedBytes,
				rec.SnapshotLSN, len(rec.Records), rec.TruncatedBytes)
		}
	})
}

// sameState reports whether two recoveries found the same snapshot and
// the same records.
func sameState(a, b *Recovered) bool {
	return a.SnapshotLSN == b.SnapshotLSN &&
		reflect.DeepEqual(a.SnapshotPayload, b.SnapshotPayload) &&
		reflect.DeepEqual(a.Records, b.Records)
}
