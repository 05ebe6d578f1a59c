package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// rangeRecorder is a HandoffBackend that remembers the range it was asked
// for. The embedded Backend stays nil: only /v1/keys is driven.
type rangeRecorder struct {
	Backend
	lo, hi uint64
}

func (b *rangeRecorder) Keys(_ context.Context, lo, hi uint64) ([]Key, error) {
	b.lo, b.hi = lo, hi
	return nil, nil
}
func (b *rangeRecorder) Fetch(context.Context, []Key) ([]Entry, error) { return nil, nil }
func (b *rangeRecorder) Ingest(context.Context, []Entry) (int, error)  { return 0, nil }

// handlerTransport answers requests from a handler in-process, so the fuzz
// loop crosses the real client and server code without a socket per input.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// FuzzParseKeyRange feeds ?range= arbitrary bytes, the one query string a
// peer controls. The parser must never panic; the endpoint answers 200
// exactly for what the parser accepts and 400 for the rest; and an accepted
// range survives Client.Keys' own %016x-%016x rendering unchanged. Seeds
// are the files under testdata/fuzz/FuzzParseKeyRange.
func FuzzParseKeyRange(f *testing.F) {
	backend := &rangeRecorder{}
	h := backendHandler(backend, newTelemetry(0, nil), false)
	cl := &Client{BaseURL: "http://node", HTTPClient: &http.Client{Transport: handlerTransport{h}}}
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, err := parseKeyRange(s)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/keys?range="+url.QueryEscape(s), nil))
		want := http.StatusOK
		if err != nil && s != "" { // an empty ?range= is the full listing
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("GET /v1/keys?range=%q = %d, want %d (parse error: %v)", s, rec.Code, want, err)
		}
		if err != nil {
			return
		}
		if _, err := cl.Keys(context.Background(), lo, hi); err != nil {
			t.Fatalf("Client.Keys(%x, %x): %v", lo, hi, err)
		}
		if backend.lo != lo || backend.hi != hi {
			t.Fatalf("range %q parsed as %x-%x but reached the node as %x-%x", s, lo, hi, backend.lo, backend.hi)
		}
	})
}
