package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// warnLog captures store warnings race-safely (the writer goroutine logs
// too under -race).
type warnLog struct {
	mu   sync.Mutex
	msgs []string
}

func (w *warnLog) logf(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.msgs = append(w.msgs, fmt.Sprintf(format, args...))
}

func (w *warnLog) contains(sub string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range w.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

// testKey derives a distinct, deterministic key.
func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xAB
	return k
}

// testResult builds a payload whose identity survives a JSON round trip.
func testResult(i int) Result {
	return Result{Stats: &sim.Stats{Total: uint64(1000 + i), Loads: uint64(i)}}
}

func openTestStore(t *testing.T, dir string, opts StoreOptions) (*Store, *warnLog) {
	t.Helper()
	w := &warnLog{}
	if opts.Logf == nil {
		opts.Logf = w.logf
	}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// segFiles lists the store's segment files.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// diskBytes sums the segment file sizes.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, name := range segFiles(t, dir) {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestStoreRoundtripAcrossRestart is the core durability contract: every
// record written before Close is served — value-identical — by a fresh
// Store over the same directory, purely from the rebuilt index.
func TestStoreRoundtripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 50
	s, _ := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Close(); err != nil { // Close implies flush
		t.Fatal(err)
	}

	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d keys, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		r, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d lost across restart", i)
		}
		want, _ := json.Marshal(testResult(i))
		got, _ := json.Marshal(r)
		if string(got) != string(want) {
			t.Fatalf("key %d: recovered %s, want %s", i, got, want)
		}
	}
	if len(warns.msgs) != 0 {
		t.Fatalf("clean restart produced warnings: %v", warns.msgs)
	}
}

// TestStoreSegmentRotation checks records spread over many segments when
// they outgrow MaxSegmentBytes, and that recovery scans all of them.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	const n = 24
	s, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 256})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(segFiles(t, dir)); got < 3 {
		t.Fatalf("rotation produced %d segments, want several", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 256})
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d keys across segments, want %d", got, n)
	}
}

// TestStoreTruncatedTailKeepsValidPrefix simulates a crash mid-append: the
// torn final record is skipped with a warning and every record before it
// stays live — the node starts, it does not crash.
func TestStoreTruncatedTailKeepsValidPrefix(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	s, _ := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its trailing checksum plus a payload byte.
	if err := os.Truncate(last, fi.Size()-6); err != nil {
		t.Fatal(err)
	}

	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != n-1 {
		t.Fatalf("recovered %d keys from torn log, want %d (valid prefix)", got, n-1)
	}
	for i := 0; i < n-1; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("valid-prefix key %d lost", i)
		}
	}
	if _, ok := s2.Get(testKey(n - 1)); ok {
		t.Fatal("torn record served as if intact")
	}
	if !warns.contains("truncated record") {
		t.Fatalf("no truncation warning logged: %v", warns.msgs)
	}
	// The reopened store appends to a fresh segment, so new writes are
	// recoverable even though an old segment has a torn tail.
	s2.Put(testKey(100), testResult(100))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(100)); !ok {
		t.Fatal("write after torn-tail recovery not served")
	}
}

// TestStoreGarbageTailKeepsValidPrefix covers the two corruption shapes a
// scan distinguishes: an implausible length prefix and a checksum mismatch.
// Both stop the scan at the valid prefix with a warning.
func TestStoreGarbageTailKeepsValidPrefix(t *testing.T) {
	t.Run("implausible-length", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openTestStore(t, dir, StoreOptions{})
		for i := 0; i < 5; i++ {
			s.Put(testKey(i), testResult(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		last := segFiles(t, dir)[0]
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = 0xFF
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, warns := openTestStore(t, dir, StoreOptions{})
		defer s2.Close()
		if got := s2.Len(); got != 5 {
			t.Fatalf("recovered %d keys, want 5", got)
		}
		if !warns.contains("implausible record length") {
			t.Fatalf("no corruption warning: %v", warns.msgs)
		}
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openTestStore(t, dir, StoreOptions{})
		for i := 0; i < 5; i++ {
			s.Put(testKey(i), testResult(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		last := segFiles(t, dir)[0]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(last, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte inside the final record's payload.
		if _, err := f.WriteAt([]byte{0x5A}, fi.Size()-8); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, warns := openTestStore(t, dir, StoreOptions{})
		defer s2.Close()
		if got := s2.Len(); got != 4 {
			t.Fatalf("recovered %d keys, want 4 (corrupt final record dropped)", got)
		}
		if !warns.contains("checksum mismatch") {
			t.Fatalf("no checksum warning: %v", warns.msgs)
		}
	})
}

// TestStoreUnrecognizedSegmentSkipped: a file with no valid magic header is
// skipped whole, with a warning, without failing the open.
func TestStoreUnrecognizedSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	s.Put(testKey(1), testResult(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000099.log"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("recovered %d keys, want 1", got)
	}
	if !warns.contains("no valid header") {
		t.Fatalf("no header warning: %v", warns.msgs)
	}
}

// TestStoreScanDuplicatesLastWins: a log in which every key appears twice
// (Put is idempotent, so only a log an older build wrote carries
// duplicates) indexes each key once, serves the later copy, and keeps the
// superseded copies visible as total − live bytes — right after open, after
// new appends, and across a restart.
func TestStoreScanDuplicatesLastWins(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	var buf []byte
	var first, second int64
	buf = append(buf, storeMagic...)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			payload, err := json.Marshal(testResult(i + round*1000))
			if err != nil {
				t.Fatal(err)
			}
			rec := encodeRecord(testKey(i), payload)
			buf = append(buf, rec...)
			if round == 0 {
				first += int64(len(rec))
			} else {
				second += int64(len(rec))
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	serves := func(s *Store, i int, want Result) {
		t.Helper()
		r, ok := s.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d not served", i)
		}
		got, _ := json.Marshal(r)
		if w, _ := json.Marshal(want); string(got) != string(w) {
			t.Fatalf("key %d: served %s, want %s", i, got, w)
		}
	}
	footprint := func(s *Store, wantLive, wantTotal int64) {
		t.Helper()
		if live, total := s.Bytes(); live != wantLive || total != wantTotal {
			t.Fatalf("Bytes() = %d live, %d total; want %d, %d", live, total, wantLive, wantTotal)
		}
	}

	s, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 512})
	if got := s.Len(); got != n {
		t.Fatalf("indexed %d keys from duplicated log, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		serves(s, i, testResult(i+1000))
	}
	footprint(s, second, first+second)

	// Appends go on after the duplicates, rotating through small segments,
	// and everything survives a restart with the same footprint.
	const fresh = 200
	s.Put(testKey(fresh), testResult(fresh))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	serves(s, fresh, testResult(fresh))
	live, total := s.Bytes()
	if live <= second || total-live != first {
		t.Fatalf("after Put: Bytes() = %d live, %d total; want live past %d and %d dead", live, total, second, first)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 512})
	defer s2.Close()
	if got := s2.Len(); got != n+1 {
		t.Fatalf("restart recovered %d keys, want %d", got, n+1)
	}
	for i := 0; i < n; i++ {
		serves(s2, i, testResult(i+1000))
	}
	serves(s2, fresh, testResult(fresh))
	footprint(s2, live, total)
}

// TestStorePutIdempotent: re-putting a stored key writes nothing new.
func TestStorePutIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	s.Put(testKey(1), testResult(1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	size1 := diskBytes(t, dir)
	for i := 0; i < 10; i++ {
		s.Put(testKey(1), testResult(1))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if size2 := diskBytes(t, dir); size2 != size1 {
		t.Fatalf("duplicate Put grew the log: %d -> %d bytes", size1, size2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreKeysRange pins the ring-range filter, including the wrapping
// form (lo > hi) that a ring arc crossing zero produces.
func TestStoreKeysRange(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	const n = 32
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	all := s.Keys(0, ^uint64(0))
	if len(all) != n {
		t.Fatalf("full range lists %d keys, want %d", len(all), n)
	}
	// Split the space at an arbitrary pivot: the two halves partition it.
	const pivot = uint64(1) << 63
	low := s.Keys(0, pivot-1)
	high := s.Keys(pivot, ^uint64(0))
	if len(low)+len(high) != n {
		t.Fatalf("range split loses keys: %d + %d != %d", len(low), len(high), n)
	}
	// A wrapping range is the complement of its inverse interior.
	wrapped := s.Keys(pivot, pivot-1) // everything
	if len(wrapped) != n {
		t.Fatalf("wrapping full range lists %d keys, want %d", len(wrapped), n)
	}
}

// scanRef is the reference parse FuzzStoreScan holds the segment scan to:
// the magic, then records until the first short header, implausible length,
// short payload or checksum mismatch, the last copy of a key winning.
func scanRef(data []byte) (index map[Key]recordRef, live, total int64) {
	index = map[Key]recordRef{}
	if len(data) < len(storeMagic) || string(data[:len(storeMagic)]) != storeMagic {
		return index, 0, 0
	}
	for off := len(storeMagic); len(data)-off >= 4+keySize; {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecordBytes || len(data)-off < recordOverhead+n {
			break
		}
		var k Key
		copy(k[:], data[off+4:])
		payload := data[off+4+keySize : off+4+keySize+n]
		sum := crc32.ChecksumIEEE(append(k[:], payload...))
		if binary.LittleEndian.Uint32(data[off+4+keySize+n:]) != sum {
			break
		}
		if old, ok := index[k]; ok {
			live -= int64(recordOverhead + old.n)
		}
		index[k] = recordRef{seg: 1, off: int64(off + 4 + keySize), n: n}
		live += int64(recordOverhead + n)
		total += int64(recordOverhead + n)
		off += recordOverhead + n
	}
	return index, live, total
}

// FuzzStoreScan feeds arbitrary bytes to the segment scan as the only
// segment of a store: the open never fails, and the index and byte counts
// equal the reference parse, again after a reopen.
func FuzzStoreScan(f *testing.F) {
	var valid []byte
	valid = append(valid, storeMagic...)
	for i := 0; i < 3; i++ {
		payload, _ := json.Marshal(testResult(i))
		valid = append(valid, encodeRecord(testKey(i), payload)...)
	}
	dup := append(append([]byte{}, valid...), valid[len(storeMagic):]...)
	dup = append(dup, encodeRecord(testKey(1), []byte(`{"err":"second"}`))...)
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0xFF
	oversized := append([]byte{}, valid...)
	oversized = binary.LittleEndian.AppendUint32(oversized, maxRecordBytes+1)
	oversized = append(oversized, make([]byte, keySize+8)...)
	f.Add(valid)
	f.Add(dup)
	f.Add(valid[:len(valid)-5]) // torn tail
	f.Add(flipped)
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantLive, wantTotal := scanRef(data)
		for pass := 0; pass < 2; pass++ {
			s, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
			if err != nil {
				t.Fatalf("pass %d: open: %v", pass, err)
			}
			s.mu.Lock()
			got := maps.Clone(s.index)
			s.mu.Unlock()
			live, total := s.Bytes()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("pass %d: index %v, reference %v", pass, got, want)
			}
			if live != wantLive || total != wantTotal {
				t.Fatalf("pass %d: Bytes() = %d live, %d total; reference %d, %d", pass, live, total, wantLive, wantTotal)
			}
		}
	})
}
