package service

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The durable result store: an append-only segment log of
// (sha256 key, JSON-encoded Result) records under one directory, with an
// in-memory key→offset index rebuilt by scanning the segments on startup.
// It sits beneath resultCache as a write-behind layer — appends are queued
// to a single writer goroutine so the simulate hot path never waits on a
// disk write — and it is what lets a restarted node serve its previously
// computed corpus as cache hits instead of re-simulating at the cold rate.
//
// Durability model: results are deterministic and content-addressed, so the
// store never needs ordering, transactions or freshness — a record is
// immutable once written and a duplicate record for the same key is merely
// wasted bytes (the index keeps the last one). The store itself never
// writes a duplicate — Put skips stored and queued keys, one goroutine
// appends, nothing is deleted — so duplicates come only from logs older
// builds wrote, and they stay visible as total − live bytes. Crash safety
// follows from the same property: a torn or garbage tail is detected by
// record checksums, logged, and skipped — the node simply restarts with the
// valid prefix and re-simulates whatever the tail lost.
// Every Open starts a fresh segment, so new records are never appended
// after a torn tail inside an old file.
//
// On-disk layout (little-endian):
//
//	<dir>/seg-00000001.log, seg-00000002.log, ...   (ids monotonically grow)
//	segment := magic "SIMSTORE1\n" record*
//	record  := uint32 payloadLen | key [32]byte | payload | uint32 crc32(key‖payload)
const (
	storeMagic = "SIMSTORE1\n"
	// recordOverhead is the fixed framing around a payload.
	recordOverhead = 4 + keySize + 4
	keySize        = 32
	// maxRecordBytes is a scan-time sanity bound: a length prefix above it
	// is treated as corruption, not as a 4 GB allocation request.
	maxRecordBytes = 16 << 20
	// defaultSegmentBytes rotates the active segment once it grows past
	// this, bounding how much of the log one corrupt record can cost: a scan
	// keeps the valid prefix of each segment and every later segment.
	defaultSegmentBytes = 64 << 20
)

// StoreFile is the slice of *os.File the store actually uses — the seam the
// fault-injection harness wraps to exercise short writes and fsync errors
// without a real failing disk. Production stores use *os.File directly.
type StoreFile interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	Sync() error
	Close() error
}

// StoreOptions tune a Store. The zero value is production-ready.
type StoreOptions struct {
	// MaxSegmentBytes rotates the active segment past this size
	// (default 64 MB). Tests set it to get small segments.
	MaxSegmentBytes int64
	// Logf sinks corruption warnings (default log.Printf).
	Logf func(format string, args ...any)
	// WrapFile, when set, wraps every segment file handle the store opens.
	// Fault-injection hook; nil means use the file as-is.
	WrapFile func(*os.File) StoreFile
	// WriteHist records (a nil histogram discards) the latency of every write-behind
	// append (encode + frame + disk write) — the store_write telemetry
	// stage. The appends run on the writer goroutine, so this measures the
	// durability lag, not anything on the serve path.
	WriteHist *obs.Histogram
}

// recordRef locates one live record: segment id, payload offset, payload
// length.
type recordRef struct {
	seg int
	off int64
	n   int
}

// storeOp is one unit of writer-goroutine work: an append, or a flush
// barrier (flush non-nil).
type storeOp struct {
	key   Key
	res   Result
	flush chan error
}

// Store is the disk layer. All mutation of segment files happens on the
// single writer goroutine (appends, rotation), so file state needs no
// locking; mu guards the maps (index, pending, readers) that the concurrent
// read paths share with it.
type Store struct {
	dir       string
	maxSeg    int64
	logf      func(format string, args ...any)
	wrap      func(*os.File) StoreFile
	writeHist *obs.Histogram

	mu         sync.Mutex
	index      map[Key]recordRef
	pending    map[Key]Result // queued for the writer, not yet indexed
	readers    map[int]StoreFile
	active     StoreFile
	activeID   int
	activeSize int64
	liveBytes  int64 // bytes of records the index references
	totalBytes int64 // bytes of all records on disk (dead ones included)

	queue chan storeOp
	wg    sync.WaitGroup

	// sendMu serializes queue sends against Close: senders hold the read
	// lock (so Close cannot close the channel under them) and check closed.
	sendMu sync.RWMutex
	closed bool
}

// enqueue submits op to the writer unless the store is closed. Senders may
// block on a full queue while holding the read lock; that is safe — the
// writer keeps draining until Close (which needs the write lock) can
// proceed.
func (s *Store) enqueue(op storeOp) bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return false
	}
	s.queue <- op
	return true
}

// OpenStore opens (creating if needed) the durable store in dir, scanning
// every segment to rebuild the key→offset index. Corrupt segment tails are
// skipped with a warning; they never fail the open.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultSegmentBytes
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	s := &Store{
		dir:       dir,
		maxSeg:    opts.MaxSegmentBytes,
		logf:      opts.Logf,
		wrap:      opts.WrapFile,
		writeHist: opts.WriteHist,
		index:     make(map[Key]recordRef),
		pending:   make(map[Key]Result),
		readers:   make(map[int]StoreFile),
		queue:     make(chan storeOp, 1024),
	}
	ids, err := s.segmentIDs()
	if err != nil {
		return nil, err
	}
	maxID := 0
	for _, id := range ids {
		if err := s.scanSegment(id); err != nil {
			return nil, err
		}
		if id > maxID {
			maxID = id
		}
	}
	// A fresh segment per process lifetime: appends never land after a torn
	// tail inside an old file, and restart recovery stays scan-only.
	if err := s.openActive(maxID + 1); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// segmentIDs lists existing segment ids in ascending order.
func (s *Store) segmentIDs() ([]int, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	var ids []int
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err == nil && id > 0 {
			ids = append(ids, id)
		} else {
			s.logf("service/store: ignoring unrecognized file %s", name)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// wrapFile applies the WrapFile fault hook, if any.
func (s *Store) wrapFile(f *os.File) StoreFile {
	if s.wrap != nil {
		return s.wrap(f)
	}
	return f
}

// scanSegment replays one segment into the index, stopping (with a warning)
// at the first truncated or corrupt record — the valid prefix stays live.
// Later segments override earlier records for the same key.
func (s *Store) scanSegment(id int) error {
	osf, err := os.Open(s.segPath(id))
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	f := s.wrapFile(osf)
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != storeMagic {
		s.logf("service/store: segment %s has no valid header — skipping file", s.segPath(id))
		f.Close()
		return nil
	}
	off := int64(len(storeMagic))
	var header [4 + keySize]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("service/store: segment %s: truncated record header at offset %d — keeping valid prefix", s.segPath(id), off)
			}
			break
		}
		n := int(binary.LittleEndian.Uint32(header[:4]))
		if n > maxRecordBytes {
			s.logf("service/store: segment %s: implausible record length %d at offset %d — keeping valid prefix", s.segPath(id), n, off)
			break
		}
		var k Key
		copy(k[:], header[4:])
		payload := make([]byte, n+4)
		if _, err := io.ReadFull(br, payload); err != nil {
			s.logf("service/store: segment %s: truncated record payload at offset %d — keeping valid prefix", s.segPath(id), off)
			break
		}
		sum := crc32.ChecksumIEEE(k[:])
		sum = crc32.Update(sum, crc32.IEEETable, payload[:n])
		if binary.LittleEndian.Uint32(payload[n:]) != sum {
			s.logf("service/store: segment %s: checksum mismatch at offset %d — keeping valid prefix", s.segPath(id), off)
			break
		}
		size := int64(recordOverhead + n)
		if old, ok := s.index[k]; ok {
			s.liveBytes -= int64(recordOverhead + old.n)
		}
		s.index[k] = recordRef{seg: id, off: off + 4 + keySize, n: n}
		s.liveBytes += size
		s.totalBytes += size
		off += size
	}
	// Keep the handle for ReadAt; the bufio reader is discarded.
	s.readers[id] = f
	return nil
}

// createSegment creates the new segment id and writes its header.
func (s *Store) createSegment(id int) (StoreFile, error) {
	osf, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	f := s.wrapFile(osf)
	if _, err := f.Write([]byte(storeMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openActive creates segment id and makes it the append target.
func (s *Store) openActive(id int) error {
	f, err := s.createSegment(id)
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	s.active = f
	s.activeID = id
	s.activeSize = int64(len(storeMagic))
	s.readers[id] = f
	return nil
}

// Put schedules a write-behind append of (k, r). It is idempotent — keys
// already on disk or already queued are skipped — and returns quickly; the
// record reaches disk when the writer goroutine drains to it (Flush forces
// that).
func (s *Store) Put(k Key, r Result) {
	s.mu.Lock()
	if _, ok := s.index[k]; ok {
		s.mu.Unlock()
		return
	}
	if _, ok := s.pending[k]; ok {
		s.mu.Unlock()
		return
	}
	s.pending[k] = r
	s.mu.Unlock()
	if !s.enqueue(storeOp{key: k, res: r}) {
		s.mu.Lock()
		delete(s.pending, k)
		s.mu.Unlock()
	}
}

// Get returns the stored result for k, reading it back from its segment
// (or from the pending write-behind queue). The disk read and JSON decode
// run outside mu: post-restart recovery traffic pays one Get per key and
// must not serialize on the store lock. A segment handle, once indexed,
// stays open until Close, which clears the index with it.
func (s *Store) Get(k Key) (Result, bool) {
	s.mu.Lock()
	if r, ok := s.pending[k]; ok {
		s.mu.Unlock()
		return r, true
	}
	ref, ok := s.index[k]
	if !ok {
		s.mu.Unlock()
		return Result{}, false
	}
	f := s.readers[ref.seg]
	s.mu.Unlock()
	buf := make([]byte, ref.n)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		s.logf("service/store: read %x: %v", k[:4], err)
		return Result{}, false
	}
	var r Result
	if err := json.Unmarshal(buf, &r); err != nil {
		s.logf("service/store: decode %x: %v", k[:4], err)
		return Result{}, false
	}
	return r, true
}

// Has reports whether k is stored (on disk or pending).
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[k]; ok {
		return true
	}
	_, ok := s.index[k]
	return ok
}

// Len reports the number of stored keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index) + len(s.pending)
}

// Bytes reports the segment footprint: live is the record bytes the index
// references, total adds the records it does not — duplicates an old log
// carried, superseded by a later copy of the same key. A skipped corrupt
// tail counts in neither.
func (s *Store) Bytes() (live, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes, s.totalBytes
}

// Keys lists the stored keys whose ring position falls in [lo, hi]
// (wrapping when lo > hi, so a ring arc that crosses zero is one range).
func (s *Store) Keys(lo, hi uint64) []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.index)+len(s.pending))
	for k := range s.index {
		if posInRange(keyPos(k), lo, hi) {
			out = append(out, k)
		}
	}
	for k := range s.pending {
		if posInRange(keyPos(k), lo, hi) {
			out = append(out, k)
		}
	}
	return out
}

// posInRange reports lo <= pos <= hi on the ring: a range with lo > hi
// wraps through zero.
func posInRange(pos, lo, hi uint64) bool {
	if lo <= hi {
		return lo <= pos && pos <= hi
	}
	return pos >= lo || pos <= hi
}

// Flush blocks until every append queued before it is on disk and synced.
func (s *Store) Flush() error {
	ack := make(chan error, 1)
	if !s.enqueue(storeOp{flush: ack}) {
		return nil
	}
	return <-ack
}

// Close flushes, stops the writer and closes every segment handle. The
// store is unusable afterwards (Put becomes a no-op, Get misses).
func (s *Store) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return nil
	}
	s.closed = true
	s.sendMu.Unlock()
	close(s.queue)
	s.wg.Wait()
	// Detach the file handles under mu, then sync and close them outside
	// it: fsync can stall on a slow disk, and anything serialized on mu
	// (Get, Has, statusz byte counts) must not stall with it. After
	// wg.Wait the writer is gone, so nobody re-populates the maps.
	s.mu.Lock()
	active := s.active
	handles := make([]StoreFile, 0, len(s.readers))
	for id, f := range s.readers {
		handles = append(handles, f)
		delete(s.readers, id)
	}
	s.active = nil
	s.index = map[Key]recordRef{}
	s.pending = map[Key]Result{}
	s.mu.Unlock()
	var firstErr error
	if err := active.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, f := range handles {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// writer is the single goroutine that owns the segment files: it drains
// appends, honours flush barriers and rotates segments.
func (s *Store) writer() {
	defer s.wg.Done()
	for op := range s.queue {
		if op.flush != nil {
			op.flush <- s.active.Sync()
			continue
		}
		a0 := time.Now()
		err := s.append(op.key, op.res)
		s.writeHist.Observe(time.Since(a0))
		if err != nil {
			s.logf("service/store: append %x: %v", op.key[:4], err)
			s.mu.Lock()
			delete(s.pending, op.key)
			s.mu.Unlock()
		}
	}
}

// append encodes and writes one record, then publishes it to the index.
func (s *Store) append(k Key, r Result) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if len(payload) > maxRecordBytes {
		// The scan-time sanity bound would treat this record — and every
		// record after it in the segment — as corruption on the next open,
		// silently truncating recovery. Refusing to persist it keeps the
		// log recoverable; the result simply re-simulates after a restart.
		return fmt.Errorf("result payload %d bytes exceeds the %d-byte record bound; not persisted",
			len(payload), maxRecordBytes)
	}
	rec := encodeRecord(k, payload)
	if s.activeSize+int64(len(rec)) > s.maxSeg {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	off := s.activeSize
	if _, err := s.active.WriteAt(rec, off); err != nil {
		return err
	}
	s.mu.Lock()
	s.activeSize += int64(len(rec))
	s.index[k] = recordRef{seg: s.activeID, off: off + 4 + keySize, n: len(payload)}
	delete(s.pending, k)
	s.liveBytes += int64(len(rec))
	s.totalBytes += int64(len(rec))
	s.mu.Unlock()
	return nil
}

// encodeRecord frames one (key, payload) record.
func encodeRecord(k Key, payload []byte) []byte {
	rec := make([]byte, recordOverhead+len(payload))
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	copy(rec[4:], k[:])
	copy(rec[4+keySize:], payload)
	sum := crc32.ChecksumIEEE(k[:])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], sum)
	return rec
}

// rotate syncs and retires the active segment and opens the next one.
func (s *Store) rotate() error {
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openActive(s.activeID + 1)
}
