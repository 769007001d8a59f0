package persist

import (
	"os"
	"path/filepath"
	"testing"

	"repro/lease"
)

// FuzzJournalReplay throws arbitrary bytes at the journal's framed
// region. scanFrames must not panic, must report a valid prefix no
// longer than the input, and that prefix must be a fixed point:
// rescanning exactly those bytes yields the same length and record
// count, so the truncation recovery applies keeps every record it
// replayed.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	s.ObserveAcquire(lease.Lease{Name: 3, Token: 7, Owner: "fuzz", ExpiresAt: at(100), Meta: map[string]string{"zone": "eu-1", "k": ""}})
	s.ObserveAcquire(lease.Lease{Name: 4, Token: 8, Owner: "", ExpiresAt: at(-5)})
	s.ObserveRenew(3, 7, at(200))
	s.ObserveRelease(3, 7)
	s.ObserveExpire(4, 8)
	if err := s.Crash(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	journal := raw[len(journalMagic):]
	f.Add(journal)
	for _, cut := range []int{0, 1, 7, 8, 9, len(journal) / 2, len(journal) - 1} {
		f.Add(journal[:cut])
	}
	for _, i := range []int{0, 3, 4, 8, len(journal) - 1} { // length, CRC, payload bytes
		flipped := append([]byte(nil), journal...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Add(append(append([]byte(nil), journal...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, buf []byte) {
		valid, n := scanFrames(buf, func(record) {})
		if valid < 0 || valid > int64(len(buf)) {
			t.Fatalf("valid prefix %d of a %d-byte region", valid, len(buf))
		}
		again, m := scanFrames(buf[:valid], func(record) {})
		if again != valid || m != n {
			t.Fatalf("rescanning the %d-byte valid prefix gave %d bytes and %d records, first scan %d records", valid, again, m, n)
		}
	})
}
