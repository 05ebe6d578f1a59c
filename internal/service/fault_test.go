package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for the chaos harness: a seeded http.RoundTripper that
// makes the wire unreliable (FaultTransport) and a seeded StoreFile wrapper
// that makes the disk unreliable (StoreFaults). Both draw from their own
// deterministic PRNG, so a chaos run's fault schedule is reproducible from
// its seed, and both can be switched off mid-run — the recovery half of a
// chaos test asserts what the fleet looks like after the weather clears.
//
// The injected faults are exactly the classes the stack claims to survive:
//
//   - dropped connections and injected 5xx → client retry / router failover
//   - truncated response bodies → decode failures, classified retryable
//   - added latency → overlap, timeout and probe paths
//   - short segment writes and fsync errors → write-behind store resilience
//     (an unpersisted result re-simulates after restart; it is never wrong)

// TransportFaults configures one FaultTransport. Probabilities are per
// request and independent; zero values inject nothing.
type TransportFaults struct {
	// DropProb fails the request outright with a transport error, as a
	// yanked cable would — no response, no status.
	DropProb float64
	// Err5xxProb synthesizes a 500 response without reaching the server.
	Err5xxProb float64
	// TruncateProb lets the request through but cuts the response body in
	// half, so the client's JSON decode fails mid-object.
	TruncateProb float64
	// DelayProb adds Delay before the request proceeds (bounded by the
	// request context, so canceled callers are not held hostage).
	DelayProb float64
	Delay     time.Duration
}

// FaultTransport is an http.RoundTripper that injects TransportFaults ahead
// of an inner transport. Construct with NewFaultTransport; safe for
// concurrent use.
type FaultTransport struct {
	inner http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand
	cfg TransportFaults

	// Injected fault counts, by class — chaos assertions use them to prove
	// the run actually exercised something.
	Drops       atomic.Uint64
	Errs        atomic.Uint64
	Truncations atomic.Uint64
	Delays      atomic.Uint64
}

// NewFaultTransport wraps inner (nil means http.DefaultTransport) with the
// given fault profile, drawing from a PRNG seeded with seed.
func NewFaultTransport(inner http.RoundTripper, seed int64, cfg TransportFaults) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// SetFaults swaps the fault profile; SetFaults(TransportFaults{}) clears the
// weather so a recovery phase runs on a clean wire.
func (ft *FaultTransport) SetFaults(cfg TransportFaults) {
	ft.mu.Lock()
	ft.cfg = cfg
	ft.mu.Unlock()
}

// roll draws the independent fault decisions for one request atomically, so
// concurrent requests never interleave PRNG draws non-deterministically
// within a single decision set.
func (ft *FaultTransport) roll() (drop, errs, trunc, delay bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	drop = ft.cfg.DropProb > 0 && ft.rng.Float64() < ft.cfg.DropProb
	errs = ft.cfg.Err5xxProb > 0 && ft.rng.Float64() < ft.cfg.Err5xxProb
	trunc = ft.cfg.TruncateProb > 0 && ft.rng.Float64() < ft.cfg.TruncateProb
	delay = ft.cfg.DelayProb > 0 && ft.rng.Float64() < ft.cfg.DelayProb
	return
}

// RoundTrip implements http.RoundTripper.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, errs, trunc, delay := ft.roll()
	if delay {
		ft.Delays.Add(1)
		select {
		case <-time.After(ft.delayFor()):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if drop {
		ft.Drops.Add(1)
		return nil, fmt.Errorf("faulttransport: connection dropped (injected)")
	}
	if errs {
		ft.Errs.Add(1)
		body := `{"error":"injected server fault"}`
		return &http.Response{
			Status:        "500 Internal Server Error (injected)",
			StatusCode:    http.StatusInternalServerError,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := ft.inner.RoundTrip(req)
	if err != nil || !trunc {
		return resp, err
	}
	ft.Truncations.Add(1)
	resp.Body = &truncatedBody{inner: resp.Body, remaining: truncateAt(resp.ContentLength)}
	resp.ContentLength = -1
	return resp, nil
}

func (ft *FaultTransport) delayFor() time.Duration {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.cfg.Delay > 0 {
		return ft.cfg.Delay
	}
	return 10 * time.Millisecond
}

// truncateAt picks how many body bytes survive: half the declared length, or
// a token prefix when the length is unknown — either way the JSON decode
// downstream fails mid-object.
func truncateAt(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 16
}

// truncatedBody yields a prefix of the real body and then fails the read the
// way a torn connection does (unexpected EOF), while still closing (and
// draining nothing of) the underlying body.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (tb *truncatedBody) Read(p []byte) (int, error) {
	if tb.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > tb.remaining {
		p = p[:tb.remaining]
	}
	n, err := tb.inner.Read(p)
	tb.remaining -= int64(n)
	if errors.Is(err, io.EOF) {
		err = nil // the cut must look like a tear, not a clean end
	}
	return n, err
}

func (tb *truncatedBody) Close() error { return tb.inner.Close() }

// StoreFaults makes a durable store's disk unreliable: its WrapFile hooks
// into StoreOptions/Config.StoreWrapFile and injects short writes and fsync
// errors into segment I/O. Reads and the plain Write path (segment headers at
// open) are never failed — OpenStore itself must succeed so a chaos run
// always has a store to hurt.
type StoreFaults struct {
	mu  sync.Mutex
	rng *rand.Rand
	// WriteProb fails a record append (WriteAt) after writing only half the
	// record — a torn write the next open's checksum scan must skip.
	writeProb float64
	// SyncProb fails an fsync — the flush path's error propagation.
	syncProb float64

	Writes atomic.Uint64 // injected short writes
	Syncs  atomic.Uint64 // injected fsync failures
}

// NewStoreFaults builds a seeded store fault injector.
func NewStoreFaults(seed int64, writeProb, syncProb float64) *StoreFaults {
	return &StoreFaults{rng: rand.New(rand.NewSource(seed)), writeProb: writeProb, syncProb: syncProb}
}

// Disable clears both probabilities — the recovery phase of a chaos run.
func (sf *StoreFaults) Disable() {
	sf.mu.Lock()
	sf.writeProb, sf.syncProb = 0, 0
	sf.mu.Unlock()
}

func (sf *StoreFaults) rollWrite() bool {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.writeProb > 0 && sf.rng.Float64() < sf.writeProb
}

func (sf *StoreFaults) rollSync() bool {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.syncProb > 0 && sf.rng.Float64() < sf.syncProb
}

// WrapFile is the StoreOptions.WrapFile / Config.StoreWrapFile hook.
func (sf *StoreFaults) WrapFile(f *os.File) StoreFile {
	return &faultFile{File: f, sf: sf}
}

// faultFile injects faults into the mutation paths of one segment file.
type faultFile struct {
	*os.File
	sf *StoreFaults
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.sf.rollWrite() {
		f.sf.Writes.Add(1)
		n := len(p) / 2
		if n > 0 {
			_, _ = f.File.WriteAt(p[:n], off) // the torn half reaches disk
		}
		return n, fmt.Errorf("storefaults: short write (injected, %d of %d bytes)", n, len(p))
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.sf.rollSync() {
		f.sf.Syncs.Add(1)
		return fmt.Errorf("storefaults: fsync failed (injected)")
	}
	return f.File.Sync()
}
